//! Core engine tests: Table II event counts, cross-strategy numerical
//! equivalence, and agreement between measured memory high-water marks and
//! the analytical model.

use dfg_dataflow::{memreq_units, Strategy};
use dfg_expr::compile;
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

use crate::{Engine, EngineOptions, FieldSet, OptLevel, Workload};

fn small_rt_fields(dims: [usize; 3]) -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(dims);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn cpu_engine() -> Engine {
    Engine::new(DeviceProfile::intel_x5660())
}

#[test]
fn table2_counts_match_paper_exactly() {
    // The paper's Table II, all nine rows, asserted against measured device
    // events. These counts are size-independent; a small grid suffices.
    let fields = small_rt_fields([6, 5, 4]);
    let mut engine = cpu_engine();
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let report = engine
                .derive(workload.source(), &fields, strategy)
                .unwrap_or_else(|e| panic!("{workload}/{strategy}: {e}"));
            assert_eq!(
                report.table2_row(),
                workload.paper_table2(strategy),
                "{workload} under {strategy}"
            );
        }
    }
}

#[test]
fn strategies_agree_with_each_other_and_reference() {
    let fields = small_rt_fields([8, 7, 6]);
    let mut engine = cpu_engine();
    for workload in Workload::ALL {
        let rt = engine
            .derive(workload.source(), &fields, Strategy::Roundtrip)
            .unwrap();
        let st = engine
            .derive(workload.source(), &fields, Strategy::Staged)
            .unwrap();
        let fu = engine
            .derive(workload.source(), &fields, Strategy::Fusion)
            .unwrap();
        let rf = engine.run_reference(workload, &fields).unwrap();
        let rt = rt.field.unwrap();
        let st = st.field.unwrap();
        let fu = fu.field.unwrap();
        let rf = rf.field.unwrap();
        let scale = rt.data.iter().fold(1e-6f32, |acc, &x| acc.max(x.abs()));
        for i in 0..rt.ncells {
            let (a, b, c, d) = (rt.data[i], st.data[i], fu.data[i], rf.data[i]);
            assert!(
                (a - b).abs() <= 1e-5 * scale,
                "{workload} roundtrip vs staged at {i}: {a} vs {b}"
            );
            assert!(
                (a - c).abs() <= 1e-5 * scale,
                "{workload} roundtrip vs fusion at {i}: {a} vs {c}"
            );
            assert!(
                (a - d).abs() <= 1e-4 * scale,
                "{workload} roundtrip vs reference at {i}: {a} vs {d}"
            );
        }
    }
}

#[test]
fn measured_high_water_matches_analytical_model() {
    // The executors and dfg_dataflow::memreq must agree byte-for-byte.
    let dims = [6, 5, 4];
    let n = (dims[0] * dims[1] * dims[2]) as u64;
    let fields = small_rt_fields(dims);
    let mut engine = cpu_engine();
    for workload in Workload::ALL {
        let spec = compile(workload.source()).unwrap();
        for strategy in Strategy::ALL {
            let report = engine.derive_spec(&spec, &fields, strategy).unwrap();
            let predicted = memreq_units(&spec, strategy).unwrap().bytes(n);
            assert_eq!(
                report.high_water_bytes(),
                predicted,
                "{workload} under {strategy}: measured vs modeled"
            );
        }
    }
}

/// Model == Real, event for event: same kinds, labels, bytes and queues,
/// bit-identical start/end times (per-queue clocks are the last `t_end` on
/// each queue), same high-water mark — and no data on the model side.
#[track_caller]
fn assert_same_accounting(real: &crate::ExecReport, model: &crate::ExecReport, what: &str) {
    let stream = |r: &crate::ExecReport| -> Vec<_> {
        let events = r.profile.events.iter();
        events
            .map(|e| {
                let (t0, t1) = (e.t_start.to_bits(), e.t_end.to_bits());
                (e.kind, e.label.clone(), e.bytes, t0, t1, e.queue)
            })
            .collect()
    };
    assert!(model.field.is_none(), "{what}: model mode produced data");
    assert_eq!(stream(real), stream(model), "{what}: event streams diverge");
    assert_eq!(real.high_water_bytes(), model.high_water_bytes(), "{what}");
}

#[test]
fn model_mode_reproduces_real_mode_accounting() {
    let dims = [6, 5, 4];
    let fields_real = small_rt_fields(dims);
    let fields_virtual = FieldSet::virtual_rt(dims);
    // Streaming a gradient program reads the grid shape on the host, so its
    // model run carries a concrete `dims` — bytes a model context ignores.
    let mut fields_shaped = fields_virtual.clone();
    fields_shaped.insert_small(
        "dims",
        fields_real
            .get("dims")
            .unwrap()
            .data
            .as_deref()
            .unwrap()
            .to_vec(),
    );
    let mut real = cpu_engine();
    let mut model = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    // Every entry point that reaches the device layer.
    for workload in Workload::ALL {
        let source = workload.source();
        for strategy in Strategy::ALL {
            let what = format!("{workload}/{strategy}");
            let r = real.derive(source, &fields_real, strategy).unwrap();
            let m = model.derive(source, &fields_virtual, strategy).unwrap();
            assert_same_accounting(&r, &m, &what);

            let mut rs = real.session();
            let mut ms = model.session();
            for cycle in 0..2 {
                let r = rs.derive(source, &fields_real, strategy).unwrap();
                let m = ms.derive(source, &fields_virtual, strategy).unwrap();
                assert_same_accounting(&r, &m, &format!("{what} session cycle {cycle}"));
            }
        }
        let r = real.run_reference(workload, &fields_real).unwrap();
        let m = model.run_reference(workload, &fields_virtual).unwrap();
        assert_same_accounting(&r, &m, &format!("{workload}/reference"));

        let budget = Some(8 * 1024);
        let r = real.derive_streamed(source, &fields_real, budget).unwrap();
        let m = model
            .derive_streamed(source, &fields_shaped, budget)
            .unwrap();
        assert!(r.profile.events.iter().any(|e| e.queue > 0), "{workload}");
        assert_same_accounting(&r, &m, &format!("{workload}/streamed"));
    }
    let source = Workload::VorticityMagnitude.source();
    for strategy in Strategy::ALL {
        let outputs = ["w_mag", "w_x"];
        let (named, r) = real
            .derive_many(source, &outputs, &fields_real, strategy)
            .unwrap();
        let (none, m) = model
            .derive_many(source, &outputs, &fields_virtual, strategy)
            .unwrap();
        assert_eq!((named.len(), none.len()), (2, 0));
        assert_same_accounting(&r, &m, &format!("two roots/{strategy}"));
    }
}

#[test]
fn fusion_reports_generated_source() {
    let fields = small_rt_fields([4, 4, 4]);
    let mut engine = cpu_engine();
    let report = engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
        .unwrap();
    let src = report.generated_source.expect("fusion emits source");
    assert!(src.contains("__kernel void fused_q_crit"));
    assert!(src.contains("dfg_grad3d("));
    assert!(src.contains("0.5f"), "constant not source-inserted");
    // Roundtrip/staged do not generate source.
    let r2 = engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Staged)
        .unwrap();
    assert!(r2.generated_source.is_none());
}

#[test]
fn gpu_oom_failure_mode() {
    // A grid big enough that staged Q-criterion exceeds the M2050's 3 GB in
    // model mode (no host RAM needed).
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let fields = FieldSet::virtual_rt([192, 192, 2048]);
    let err = engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Staged)
        .unwrap_err();
    assert!(err.is_out_of_memory(), "expected OOM, got {err}");
    // The same case fits under fusion (7 problem-sized arrays).
    let ok = engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
        .unwrap();
    assert!(ok.high_water_bytes() <= 2_500_000_000);
}

#[test]
fn missing_field_is_reported() {
    let mut engine = cpu_engine();
    let mut fields = FieldSet::new(8);
    fields.insert_scalar("u", vec![0.0; 8]).unwrap();
    let err = engine
        .derive("r = u + q", &fields, Strategy::Staged)
        .unwrap_err();
    assert!(matches!(err, crate::EngineError::MissingField { ref name } if name == "q"));
}

#[test]
fn intro_conditional_executes() {
    // §I: a = if (norm(grad3d(b,…)) > 10) then (c*c) else (-c*c)
    let mesh = RectilinearMesh::unit_cube([6, 6, 6]);
    let mut fields = FieldSet::new(mesh.ncells());
    let (x, y, z) = mesh.coord_arrays();
    // b has |grad| = 20 in half the domain, 0 elsewhere.
    let b = mesh.sample(|x, _, _| if x > 0.5 { 20.0 * x } else { 0.0 });
    let c = mesh.sample(|_, y, _| 1.0 + y);
    fields.insert_scalar("x", x).unwrap();
    fields.insert_scalar("y", y).unwrap();
    fields.insert_scalar("z", z).unwrap();
    fields.insert_scalar("b", b).unwrap();
    fields.insert_scalar("c", c).unwrap();
    fields.insert_small("dims", mesh.dims_buffer());
    let mut engine = cpu_engine();
    for strategy in Strategy::ALL {
        let out = engine
            .derive(crate::workloads::INTRO_CONDITIONAL, &fields, strategy)
            .unwrap()
            .field
            .unwrap();
        let s = out.as_scalar().unwrap();
        // Interior cell with steep gradient: c*c > 0; flat region: -c*c < 0.
        let steep = mesh.index(4, 3, 3);
        let flat = mesh.index(1, 3, 3);
        assert!(s[steep] > 0.0, "{strategy}: steep cell must be positive");
        assert!(s[flat] < 0.0, "{strategy}: flat cell must be negative");
    }
}

#[test]
fn vorticity_matches_taylor_green_exact_solution() {
    use dfg_mesh::analytic::taylor_green;
    let tau = std::f32::consts::TAU;
    let n = 24usize;
    let mesh = RectilinearMesh::uniform([n, n, 4], [0.0; 3], [tau / n as f32; 3]);
    let mut fields = FieldSet::new(mesh.ncells());
    let (x, y, z) = mesh.coord_arrays();
    fields
        .insert_scalar(
            "u",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[0]),
        )
        .unwrap();
    fields
        .insert_scalar(
            "v",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[1]),
        )
        .unwrap();
    fields
        .insert_scalar(
            "w",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[2]),
        )
        .unwrap();
    fields.insert_scalar("x", x).unwrap();
    fields.insert_scalar("y", y).unwrap();
    fields.insert_scalar("z", z).unwrap();
    fields.insert_small("dims", mesh.dims_buffer());
    let mut engine = cpu_engine();
    let out = engine
        .derive(
            Workload::VorticityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    let s = out.as_scalar().unwrap();
    for j in 2..n - 2 {
        for i in 2..n - 2 {
            let idx = mesh.index(i, j, 2);
            let c = mesh.cell_center(i, j, 2);
            let exact = taylor_green::vorticity(c[0], c[1], c[2])[2].abs();
            assert!(
                (s[idx] - exact).abs() < 0.06,
                "({i},{j}): {} vs {exact}",
                s[idx]
            );
        }
    }
}

#[test]
fn device_seconds_order_fusion_fastest_roundtrip_slowest() {
    // Figure 5's headline shape, from the virtual clock, at paper scale in
    // model mode.
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let fields = FieldSet::virtual_rt([192, 192, 256]);
    for workload in Workload::ALL {
        let rt = engine
            .derive(workload.source(), &fields, Strategy::Roundtrip)
            .unwrap()
            .device_seconds();
        let st = engine
            .derive(workload.source(), &fields, Strategy::Staged)
            .unwrap()
            .device_seconds();
        let fu = engine
            .derive(workload.source(), &fields, Strategy::Fusion)
            .unwrap()
            .device_seconds();
        let rf = engine
            .run_reference(workload, &fields)
            .unwrap()
            .device_seconds();
        assert!(fu < st, "{workload}: fusion {fu} !< staged {st}");
        assert!(st < rt, "{workload}: staged {st} !< roundtrip {rt}");
        assert!(
            fu < 2.0 * rf,
            "{workload}: fusion {fu} not competitive with reference {rf}"
        );
    }
}

#[test]
fn gpu_beats_cpu_when_it_fits() {
    let fields = FieldSet::virtual_rt([192, 192, 256]);
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
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let g = gpu.derive(workload.source(), &fields, strategy).unwrap();
            let c = cpu.derive(workload.source(), &fields, strategy).unwrap();
            assert!(
                g.device_seconds() <= c.device_seconds() * 1.05,
                "{workload}/{strategy}: GPU {} slower than CPU {}",
                g.device_seconds(),
                c.device_seconds()
            );
        }
    }
}

#[test]
fn derive_spec_reusable_across_runs() {
    let fields = small_rt_fields([4, 4, 4]);
    let spec = compile(Workload::VelocityMagnitude.source()).unwrap();
    let mut engine = cpu_engine();
    let a = engine
        .derive_spec(&spec, &fields, Strategy::Staged)
        .unwrap();
    let b = engine
        .derive_spec(&spec, &fields, Strategy::Staged)
        .unwrap();
    assert_eq!(a.table2_row(), b.table2_row());
    assert_eq!(a.field, b.field);
}

#[test]
fn roundtrip_dedup_ablation_reduces_uploads() {
    // DESIGN.md D1: per-port uploads (paper) vs deduplicated uploads.
    let fields = small_rt_fields([6, 5, 4]);
    let mut paper = cpu_engine();
    let mut dedup = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            roundtrip_dedup_uploads: true,
            ..Default::default()
        },
    );
    // VelMag: u*u style kernels drop from 11 to 8 uploads.
    let p = paper
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Roundtrip,
        )
        .unwrap();
    let d = dedup
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Roundtrip,
        )
        .unwrap();
    assert_eq!(p.table2_row().0, 11);
    assert_eq!(d.table2_row().0, 8);
    // Results are identical either way.
    assert_eq!(p.field, d.field);
    // And the deduped variant moves strictly less data.
    assert!(d.device_seconds() < p.device_seconds());
}

#[test]
fn streamed_fusion_bit_identical_to_fusion() {
    // §VI future work: streaming must not change results — z-slab halos
    // give the same stencil arithmetic as the single-pass kernel.
    let fields = small_rt_fields([8, 7, 9]);
    let mut engine = cpu_engine();
    for workload in Workload::ALL {
        let fused = engine
            .derive(workload.source(), &fields, Strategy::Fusion)
            .unwrap()
            .field
            .unwrap();
        // Budget small enough to force several slabs: each slab holds
        // 8 arrays/cell; 3 z-layers of 8x7 cells.
        let budget = 8 * 4 * (8 * 7 * 3) as u64;
        let streamed = engine
            .derive_streamed(workload.source(), &fields, Some(budget))
            .unwrap();
        assert!(
            streamed.high_water_bytes() <= budget,
            "{workload}: streamed peak {} exceeds budget {budget}",
            streamed.high_water_bytes()
        );
        let streamed = streamed.field.unwrap();
        for i in 0..fused.data.len() {
            assert_eq!(
                fused.data[i].to_bits(),
                streamed.data[i].to_bits(),
                "{workload} at {i}: {} vs {}",
                fused.data[i],
                streamed.data[i]
            );
        }
    }
}

#[test]
fn streaming_completes_cases_fusion_cannot() {
    // A Figure 5 "FAILED" case: Q-criterion on the largest Table I grid
    // exceeds the M2050's usable memory under single-pass fusion, but
    // streams fine. (Model mode needs a concrete dims buffer to slab.)
    let dims = [192usize, 192, 3072];
    let mut fields = FieldSet::virtual_rt(dims);
    fields.insert_small("dims", vec![dims[0] as f32, dims[1] as f32, dims[2] as f32]);
    let mut gpu = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let src = Workload::QCriterion.source();
    assert!(gpu
        .derive(src, &fields, Strategy::Fusion)
        .unwrap_err()
        .is_out_of_memory());
    let streamed = gpu.derive_streamed(src, &fields, None).unwrap();
    assert!(streamed.high_water_bytes() <= gpu.device().global_mem_bytes);
    // Streaming pays for its flexibility with extra transfers (the halo
    // layers) but stays within ~2x of what unconstrained fusion would cost.
    let mut cpu_like = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let unconstrained = cpu_like.derive(src, &fields, Strategy::Fusion).unwrap();
    let gpu_over_cpu = streamed.profile.count(dfg_ocl::EventKind::KernelExec) as f64;
    assert!(gpu_over_cpu > 1.0, "streaming must use multiple slabs");
    assert!(unconstrained.device_seconds() > 0.0);
}

#[test]
fn streaming_rejects_impossible_budget() {
    let fields = small_rt_fields([8, 8, 8]);
    let mut engine = cpu_engine();
    let err = engine
        .derive_streamed(Workload::QCriterion.source(), &fields, Some(64))
        .unwrap_err();
    assert!(err.is_out_of_memory());
}

#[test]
fn streaming_elementwise_chunks_without_dims() {
    let fields = small_rt_fields([6, 6, 6]);
    let mut engine = cpu_engine();
    let fused = engine
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    // Chunk the 216-cell array into pieces of at most 50 cells (4 arrays).
    let streamed = engine
        .derive_streamed(
            Workload::VelocityMagnitude.source(),
            &fields,
            Some(4 * 4 * 50),
        )
        .unwrap();
    let (w, _r, k) = streamed.table2_row();
    assert!(k >= 5, "expected >= 5 chunks, got {k} kernels");
    assert!(w >= 3 * k, "each chunk re-uploads its three inputs");
    assert_eq!(streamed.field.unwrap().data, fused.data);
}

#[test]
fn curl_sugar_equals_fig3b_vorticity() {
    // `norm(curl(...))` must compute exactly what the hand-written Figure
    // 3B program computes, under every strategy.
    let fields = small_rt_fields([7, 6, 5]);
    let mut engine = cpu_engine();
    let reference = engine
        .derive(
            Workload::VorticityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    for strategy in Strategy::ALL {
        let sugar = engine
            .derive(
                "w_mag = norm(curl(u, v, w, dims, x, y, z))",
                &fields,
                strategy,
            )
            .unwrap()
            .field
            .unwrap();
        for i in 0..reference.data.len() {
            assert!(
                (sugar.data[i] - reference.data[i]).abs()
                    <= 1e-5 * reference.data[i].abs().max(1.0),
                "{strategy} at {i}: {} vs {}",
                sugar.data[i],
                reference.data[i]
            );
        }
    }
}

#[test]
fn divergence_of_solenoidal_taylor_green_is_small() {
    use dfg_mesh::analytic::taylor_green;
    let tau = std::f32::consts::TAU;
    let n = 20usize;
    let mesh = RectilinearMesh::uniform([n, n, 4], [0.0; 3], [tau / n as f32; 3]);
    let mut fields = FieldSet::new(mesh.ncells());
    let (x, y, z) = mesh.coord_arrays();
    fields
        .insert_scalar(
            "u",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[0]),
        )
        .unwrap();
    fields
        .insert_scalar(
            "v",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[1]),
        )
        .unwrap();
    fields
        .insert_scalar(
            "w",
            mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[2]),
        )
        .unwrap();
    fields.insert_scalar("x", x).unwrap();
    fields.insert_scalar("y", y).unwrap();
    fields.insert_scalar("z", z).unwrap();
    fields.insert_small("dims", mesh.dims_buffer());
    let mut engine = cpu_engine();
    let out = engine
        .derive(
            "d = divergence(u, v, w, dims, x, y, z)",
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    // Taylor–Green is divergence-free; discrete divergence in the interior
    // must be near zero (f32 stencil error only).
    let s = out.as_scalar().unwrap();
    for j in 2..n - 2 {
        for i in 2..n - 2 {
            let idx = mesh.index(i, j, 2);
            assert!(s[idx].abs() < 0.05, "div at ({i},{j}) = {}", s[idx]);
        }
    }
}

#[test]
fn helicity_and_enstrophy_expressions_run() {
    // Real derived-field staples built from the extended function library.
    let fields = small_rt_fields([8, 8, 8]);
    let mut engine = cpu_engine();
    let helicity = engine
        .derive(
            "h = dot(vector(u, v, w), curl(u, v, w, dims, x, y, z))",
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    assert!(helicity.as_scalar().unwrap().iter().any(|&v| v != 0.0));
    let enstrophy = engine
        .derive(
            "ens = 0.5 * pow(norm(curl(u, v, w, dims, x, y, z)), 2)",
            &fields,
            Strategy::Staged,
        )
        .unwrap()
        .field
        .unwrap();
    assert!(enstrophy.as_scalar().unwrap().iter().all(|&v| v >= 0.0));
}

#[test]
fn trig_functions_execute_correctly() {
    let n = 16usize;
    let mut fields = FieldSet::new(n);
    let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.3 + 0.1).collect();
    fields.insert_scalar("t", vals.clone()).unwrap();
    let mut engine = cpu_engine();
    let out = engine
        .derive(
            "r = sin(t)*sin(t) + cos(t)*cos(t) + exp(log(t)) - t",
            &fields,
            Strategy::Fusion,
        )
        .unwrap()
        .field
        .unwrap();
    for (i, &v) in out.as_scalar().unwrap().iter().enumerate() {
        assert!((v - 1.0).abs() < 1e-5, "identity failed at {i}: {v}");
    }
}

#[test]
fn derive_many_shares_work_across_outputs() {
    // Vorticity magnitude AND the intermediate w_x, w_y in one pass.
    let fields = small_rt_fields([7, 6, 5]);
    let mut engine = cpu_engine();
    for strategy in Strategy::ALL {
        let (outputs, report) = engine
            .derive_many(
                Workload::VorticityMagnitude.source(),
                &["w_mag", "w_x", "w_y"],
                &fields,
                strategy,
            )
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(outputs.len(), 3);
        assert_eq!(outputs[0].0, "w_mag");
        // Cross-check each output against the single-output path.
        for (name, field) in &outputs {
            let single = engine
                .derive(
                    &format!(
                        "{}\nfinal_alias = {name}\n",
                        Workload::VorticityMagnitude.source()
                    ),
                    &fields,
                    strategy,
                )
                .unwrap()
                .field
                .unwrap();
            assert_eq!(field.data, single.data, "{strategy}/{name}");
        }
        // Fusion computes all three in a single kernel launch.
        if strategy == Strategy::Fusion {
            assert_eq!(report.table2_row(), (7, 1, 1), "one kernel, one read");
            let src = report.generated_source.as_deref().unwrap();
            assert!(src.contains("out_w_mag[idx]"), "{src}");
            assert!(src.contains("out_w_x[idx]"));
        }
        // Staged reads one buffer per output but runs the shared 18-kernel
        // schedule once.
        if strategy == Strategy::Staged {
            assert_eq!(report.table2_row(), (7, 3, 18));
        }
    }
}

#[test]
fn derive_many_rejects_unknown_outputs() {
    let fields = small_rt_fields([4, 4, 4]);
    let mut engine = cpu_engine();
    let err = engine
        .derive_many(
            Workload::VelocityMagnitude.source(),
            &["v_mag", "enstrophy"],
            &fields,
            Strategy::Fusion,
        )
        .unwrap_err();
    assert!(matches!(err, crate::EngineError::NoSuchOutput { ref name } if name == "enstrophy"));
}

#[test]
fn derive_many_single_output_equals_derive() {
    let fields = small_rt_fields([5, 5, 5]);
    let mut engine = cpu_engine();
    let (outputs, _) = engine
        .derive_many(
            Workload::QCriterion.source(),
            &["q_crit"],
            &fields,
            Strategy::Fusion,
        )
        .unwrap();
    let single = engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
        .unwrap()
        .field
        .unwrap();
    assert_eq!(outputs[0].1.data, single.data);
}

#[test]
fn executors_surface_injected_device_failures_cleanly() {
    // Fault injection: fail the k-th allocation for a spread of k the
    // execution performs; the executor must return an error (never panic)
    // and the engine-level invariant — a fresh context per run — keeps later
    // runs clean. Exercised against all four strategy functions.
    use crate::strategies::{run_fusion, run_roundtrip, run_staged, run_streamed};
    use dfg_dataflow::Schedule;
    use dfg_ocl::Context;

    let fields = small_rt_fields([5, 4, 3]);
    let spec = compile(Workload::QCriterion.source()).unwrap();
    let sched = Schedule::new(&spec).unwrap();
    let roots = [spec.result];
    type Exec<'a> = Box<dyn Fn(&mut Context) -> Result<(), crate::EngineError> + 'a>;
    let executors: [(&str, Exec<'_>); 4] = [
        (
            "roundtrip",
            Box::new(|ctx| {
                run_roundtrip(&spec, &sched, &fields, ctx, &roots, None, false).map(|_| ())
            }),
        ),
        (
            "staged",
            Box::new(|ctx| run_staged(&spec, &sched, &fields, ctx, &roots, None).map(|_| ())),
        ),
        (
            "fusion",
            Box::new(|ctx| run_fusion(&spec, &fields, ctx, &roots, None, "t").map(|_| ())),
        ),
        (
            "streamed",
            Box::new(|ctx| {
                let budget = ctx.profile().global_mem_bytes;
                run_streamed(&spec, &fields, ctx, None, "t", budget).map(|_| ())
            }),
        ),
    ];
    for (name, exec) in &executors {
        // A clean run first: every executor drains what it allocates.
        let mut probe = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        exec(&mut probe).unwrap();
        assert_eq!(probe.in_use_bytes(), 0, "{name}: clean run leaked");
        // Inject failures at a spread of allocation indices.
        for k in [1usize, 2, 5, 8] {
            let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
            ctx.fail_alloc_in(k);
            let err = exec(&mut ctx).expect_err("injected failure must surface");
            assert!(
                matches!(err, crate::EngineError::Ocl(_)),
                "{name} k={k}: unexpected error {err}"
            );
        }
    }
}

#[test]
fn logical_operators_execute() {
    let n = 8usize;
    let mut fields = FieldSet::new(n);
    fields
        .insert_scalar("t", (0..n).map(|i| i as f32 - 3.0).collect())
        .unwrap();
    let mut engine = cpu_engine();
    for strategy in Strategy::ALL {
        // In (-2, 2) exclusive, via and(); outside [-3, 3], via not(or()).
        let out = engine
            .derive(
                "band = and(t > -2, t < 2)\nouter = not(or(t >= -3, t <= 3))\nr = band + 2 * outer",
                &fields,
                strategy,
            )
            .unwrap()
            .field
            .unwrap();
        let s = out.as_scalar().unwrap();
        // t = -3..4: band true for t in {-1, 0, 1}; outer always false
        // (everything is >= -3 or <= 3).
        let expected = [0.0f32, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        assert_eq!(s, expected, "{strategy}");
    }
}

#[test]
fn engine_caches_compiled_programs() {
    let fields = small_rt_fields([4, 4, 4]);
    let mut engine = cpu_engine();
    assert_eq!(engine.compile_count(), 0);
    for _ in 0..5 {
        engine
            .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
            .unwrap();
    }
    assert_eq!(engine.compile_count(), 1, "identical source compiles once");
    engine
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Staged,
        )
        .unwrap();
    assert_eq!(engine.compile_count(), 2);
    // Errors are not cached as successes.
    assert!(engine
        .derive("r = sqrt(", &fields, Strategy::Fusion)
        .is_err());
    assert!(engine
        .derive("r = sqrt(", &fields, Strategy::Fusion)
        .is_err());
    assert_eq!(engine.compile_count(), 2);
}

#[test]
fn cse_level_ablation_reduces_qcrit_kernels_without_changing_results() {
    // DESIGN.md D2 ablation: the paper's limited CSE keeps commutative
    // duplicates like s_3 = 0.5*(dv[0] + du[1]) (= s_1). Full value
    // numbering merges them.
    let fields = small_rt_fields([6, 5, 4]);
    let mut limited = cpu_engine();
    let mut full = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            optimize: OptLevel::Cse,
            ..Default::default()
        },
    );
    let src = Workload::QCriterion.source();
    let a = limited.derive(src, &fields, Strategy::Staged).unwrap();
    let b = full.derive(src, &fields, Strategy::Staged).unwrap();
    let (_, _, k_limited) = a.table2_row();
    let (_, _, k_full) = b.table2_row();
    assert_eq!(k_limited, 67, "paper count");
    assert!(
        k_full < k_limited,
        "full CSE must launch fewer kernels: {k_full} vs {k_limited}"
    );
    // Bit-identical derived field (f32 +/* are commutative).
    assert_eq!(
        a.field
            .unwrap()
            .data
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        b.field
            .unwrap()
            .data
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    // Report the savings where a human will see them on failure.
    println!("Q-crit staged kernels: limited CSE {k_limited}, full CSE {k_full}");
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i} ({x} vs {y})");
    }
}

/// Every strategy is bit-stable under the serial override: parallel
/// chunked kernels use globally-indexed chunks, so the thread count
/// never leaks into results.
#[test]
fn all_strategies_bit_identical_under_serial_override() {
    let fields = small_rt_fields([8, 7, 6]);
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let par = cpu_engine()
                .derive(workload.source(), &fields, strategy)
                .unwrap();
            let ser = dfg_exec::with_serial(|| {
                cpu_engine()
                    .derive(workload.source(), &fields, strategy)
                    .unwrap()
            });
            assert_bits_eq(
                &par.field.unwrap().data,
                &ser.field.unwrap().data,
                &format!("{workload}/{strategy}"),
            );
        }
    }
}

/// Fused, staged and reference executors on grids whose cell count is a
/// multiple of neither the chunk width nor `nx` — 37×5×3 crosses chunk and
/// row boundaries inside one task, 37×31×17 also splits into several tasks
/// on the pool — serially and on the pool. Fusion and staged run the same
/// operations in the same order, so they agree bit for bit; so does the
/// hand-written kernel wherever it spells the expression the same way
/// (Q-criterion is hand-minimized, so it is held to a tolerance).
#[test]
fn executors_agree_bit_for_bit_on_ragged_grids_serial_and_pooled() {
    for dims in [[37, 5, 3], [37, 31, 17]] {
        let fields = small_rt_fields(dims);
        for workload in Workload::ALL {
            let what = format!("{workload} on {dims:?}");
            let run = |strategy| {
                let field = |engine: &mut Engine| {
                    match strategy {
                        Some(s) => engine.derive(workload.source(), &fields, s),
                        None => engine.run_reference(workload, &fields),
                    }
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                    .field
                    .unwrap()
                    .data
                };
                let pooled = field(&mut cpu_engine());
                let serial = dfg_exec::with_serial(|| field(&mut cpu_engine()));
                assert_bits_eq(
                    &pooled,
                    &serial,
                    &format!("{what} {strategy:?}: pool vs serial"),
                );
                pooled
            };
            let fused = run(Some(Strategy::Fusion));
            assert_bits_eq(
                &fused,
                &run(Some(Strategy::Staged)),
                &format!("{what}: staged"),
            );
            let reference = run(None);
            if workload == Workload::QCriterion {
                let scale = fused.iter().fold(1e-6f32, |m, x| m.max(x.abs()));
                for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-4 * scale,
                        "{what} reference at {i}: {a} vs {b}"
                    );
                }
            } else {
                assert_bits_eq(&fused, &reference, &format!("{what}: reference"));
            }
        }
    }
}

/// The fused kernel writes one plane per root and the download is split by
/// plane: a three-root program with a `float4` root and a root that is a
/// bare input returns exactly the fields three single-root derives return.
#[test]
fn planar_multi_root_download_equals_single_root_derives() {
    let src = "g = grad3d(u, dims, x, y, z)\nm = sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])\nr = w";
    let fields = small_rt_fields([37, 5, 3]);
    let names = ["m", "g", "r"];
    let mut engine = cpu_engine();
    let (many, _) = engine
        .derive_many(src, &names, &fields, Strategy::Fusion)
        .unwrap();
    assert_eq!(many.len(), 3);
    for ((name, field), want) in many.iter().zip(names) {
        assert_eq!(name, want);
        let (single, _) = engine
            .derive_many(src, &[want], &fields, Strategy::Fusion)
            .unwrap();
        assert_eq!(field.width, single[0].1.width, "{name}");
        assert_bits_eq(&field.data, &single[0].1.data, &format!("root {name}"));
    }
    assert_eq!(
        many[1].1.data.len(),
        4 * fields.ncells(),
        "g keeps float4 cells"
    );
    let w = fields.get("w").unwrap().data.as_ref().unwrap();
    assert_bits_eq(&many[2].1.data, w, "bare-input root");
}

/// A `dims` field that disagrees with the grid used to reach the stencil
/// (`idx % 0`, or indexing past the field) and panic on a pool thread. It
/// is a typed error on every execution path, decided before the device is
/// touched: no buffer stays allocated and no event is recorded.
#[test]
fn dims_disagreeing_with_the_grid_is_a_typed_error_before_any_device_work() {
    use dfg_trace::Tracer;
    let src = Workload::VorticityMagnitude.source();
    let paths = Strategy::ALL.map(Some).into_iter().chain([None]);
    for bad in [
        [0.0, 0.0, 0.0],
        [6.0, 5.0, 5.0],
        [-1.0, 5.0, 4.0],
        [1e9, 1e9, 1e9],
    ] {
        let mut fields = small_rt_fields([6, 5, 4]);
        fields.insert_small("dims", bad.to_vec());
        let is_dims_error = |err: crate::EngineError| match err {
            crate::EngineError::FieldSize { name, expected, .. } => {
                assert_eq!((name.as_str(), expected), ("dims", 120), "{bad:?}");
            }
            other => panic!("{bad:?}: expected FieldSize, got {other}"),
        };
        for path in paths.clone() {
            let tracer = Tracer::new();
            let mut engine = cpu_engine();
            engine.set_tracer(tracer.clone());
            is_dims_error(
                match path {
                    Some(strategy) => engine.derive(src, &fields, strategy),
                    None => engine.derive_streamed(src, &fields, None),
                }
                .unwrap_err(),
            );
            let trace = tracer.snapshot_since(0);
            let device = trace.spans().iter().filter(|s| s.name.starts_with("ocl."));
            assert_eq!(
                device.count(),
                0,
                "{bad:?} {path:?}: device events recorded"
            );

            let mut session = engine.session();
            is_dims_error(
                match path {
                    Some(strategy) => session.derive(src, &fields, strategy),
                    None => session.derive_streamed(src, &fields, None),
                }
                .unwrap_err(),
            );
            assert_eq!(session.context().in_use_bytes(), 0, "{bad:?} {path:?}");
            assert!(
                session.context().report().events.is_empty(),
                "{bad:?} {path:?}"
            );
        }
        is_dims_error(
            cpu_engine()
                .run_reference(Workload::QCriterion, &fields)
                .unwrap_err(),
        );
    }
}

/// The in-place table of docs/PERFORMANCE.md (CI prints it with
/// `--nocapture`): per paper expression, the staged launches, how many of
/// them compute into the storage of an operand that dies with them, and how
/// many are `decompose`s whose output shares a plane of their operand, read
/// from the `in_place` and `view` flags of each `staged.kernel` span.
#[test]
fn staged_in_place_table() {
    use dfg_trace::{MetaValue, Tracer};
    let fields = small_rt_fields([6, 5, 4]);
    println!("| expression | staged launches | launches in place | views |");
    println!("|---|---|---|---|");
    let names = ["vel_mag", "vort_mag", "q_crit"];
    let rows = Workload::ALL.map(|workload| {
        let name = names[workload as usize];
        let mut engine = cpu_engine();
        engine.set_tracer(Tracer::new());
        let report = engine
            .derive(workload.source(), &fields, Strategy::Staged)
            .unwrap();
        let trace = report.trace.unwrap();
        let kernels: Vec<_> = (trace.spans().iter())
            .filter(|s| s.name == "staged.kernel")
            .collect();
        let count = |flag: &str| {
            let set =
                |s: &&&dfg_trace::SpanRecord| s.meta_get(flag) == Some(&MetaValue::Bool(true));
            kernels.iter().filter(set).count()
        };
        let (in_place, views) = (count("in_place"), count("view"));
        println!("| `{name}` | {} | {in_place} | {views} |", kernels.len());
        (kernels.len(), in_place, views)
    });
    assert_eq!(rows, [(6, 3, 0), (18, 9, 6), (67, 45, 9)]);
}

// ---------------------------------------------------------------------------
// Persistent sessions: resident fields, kernel cache, buffer pooling.
// ---------------------------------------------------------------------------

mod session {
    use super::*;
    use dfg_ocl::EventKind;
    use dfg_trace::Tracer;

    /// A 100-cycle in-situ fusion loop with static coordinates and velocity
    /// updated each cycle: unchanged fields never re-upload and fusion
    /// codegen/compile happens exactly once (the tentpole's acceptance
    /// criterion).
    #[test]
    fn hundred_cycle_session_amortizes_uploads_and_codegen() {
        let mut fields = small_rt_fields([6, 5, 4]);
        let mut engine = cpu_engine();
        let mut session = engine.session();
        let src = Workload::VelocityMagnitude.source();
        let n = fields.ncells();
        for cycle in 0..100u32 {
            if cycle > 0 {
                fields.update_scalar("u", &vec![cycle as f32; n]).unwrap();
            }
            let report = session.derive(src, &fields, Strategy::Fusion).unwrap();
            assert!(report.field.is_some());
        }
        let stats = session.stats().clone();
        assert_eq!(stats.cycles, 100);
        assert_eq!(stats.codegen_compiles, 1, "one codegen for 100 cycles");
        assert_eq!(stats.codegen_cached, 99);
        // vel_mag reads u, v, w: u uploads every cycle (mutated), v and w
        // once each — zero re-uploads of unchanged fields.
        assert_eq!(stats.uploads, 100 + 1 + 1);
        assert_eq!(stats.uploads_skipped, 99 * 2);
        let stats = session.end();
        assert_eq!(stats.cycles, 100);
    }

    /// One session derive on any of the four execution paths.
    fn derive_on(
        session: &mut crate::Session<&mut Engine>,
        path: Option<Strategy>,
        fields: &FieldSet,
    ) -> Result<crate::ExecReport, crate::EngineError> {
        let src = Workload::QCriterion.source();
        match path {
            Some(strategy) => session.derive(src, fields, strategy),
            None => session.derive_streamed(src, fields, None),
        }
    }

    /// A plain session (recovery disabled) goes through the driver's
    /// rollback like any other: a derive that fails mid-walk leaves only the
    /// resident fields allocated, surfaces the raw device error, and the
    /// next cycle is clean and bit-identical — on every execution path,
    /// whether the fault hits the first cycle (residents created by the
    /// failed attempt) or a later one (residents established).
    #[test]
    fn failed_plain_cycle_leaks_nothing_and_surfaces_the_raw_error() {
        use dfg_ocl::{FaultKind, FaultPlan, OclError};
        let fields = small_rt_fields([5, 4, 3]);
        let paths = Strategy::ALL.map(Some).into_iter().chain([None]);
        for path in paths {
            let name = path.map_or("streamed", |s| s.name());
            let clean = derive_on(&mut cpu_engine().session(), path, &fields)
                .unwrap()
                .field
                .unwrap();
            // Fusion and streamed (one slab here) launch once per cycle.
            let nth = if path.is_some_and(|s| s != Strategy::Fusion) {
                3
            } else {
                1
            };
            for warm in [false, true] {
                let plan = FaultPlan::with_seed(1);
                let mut engine = cpu_engine();
                engine.set_fault_plan(plan.clone());
                let mut session = engine.session();
                if warm {
                    derive_on(&mut session, path, &fields).unwrap();
                }
                plan.fail_nth_from_now(FaultKind::Launch, nth, 1);
                let err = derive_on(&mut session, path, &fields).unwrap_err();
                assert!(
                    matches!(err, crate::EngineError::Ocl(OclError::LaunchFailed { .. })),
                    "{name} warm={warm}: policy is disabled, got {err}"
                );
                assert_eq!(
                    session.context().in_use_bytes(),
                    session.resident_bytes(),
                    "{name} warm={warm}: failed cycle leaked device bytes"
                );
                let again = derive_on(&mut session, path, &fields).unwrap();
                assert!(again.recovery.is_none(), "{name}: clean run, no policy");
                assert_bits_eq(
                    &clean.data,
                    &again.field.unwrap().data,
                    &format!("{name} warm={warm}: cycle after the failure"),
                );
            }
        }
    }

    /// The same holds for a detected integrity violation on a *resident*:
    /// with the policy disabled it surfaces raw (never `Exhausted`), nothing
    /// leaks, and the next cycle's bind heals the resident by re-upload.
    #[test]
    fn integrity_violation_on_a_resident_surfaces_raw_and_heals_next_cycle() {
        use dfg_ocl::{FaultKind, FaultPlan, OclError, VerifyPolicy};
        let fields = small_rt_fields([5, 4, 3]);
        let path = Some(Strategy::Fusion);
        let clean = derive_on(&mut cpu_engine().session(), path, &fields)
            .unwrap()
            .field
            .unwrap();
        let plan = FaultPlan::with_seed(1);
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                verify: VerifyPolicy::Full,
                ..Default::default()
            },
        );
        engine.set_fault_plan(plan.clone());
        let mut session = engine.session();
        derive_on(&mut session, path, &fields).unwrap();
        // Every input of the fused launch is a session resident.
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        let err = derive_on(&mut session, path, &fields).unwrap_err();
        assert!(
            matches!(
                err,
                crate::EngineError::Ocl(OclError::IntegrityViolation { .. })
            ),
            "policy is disabled, got {err}"
        );
        assert_eq!(session.context().in_use_bytes(), session.resident_bytes());
        let again = derive_on(&mut session, path, &fields).unwrap();
        assert!(again.recovery.is_none());
        assert_eq!(session.stats().integrity_healed, 1, "healed at bind");
        assert_bits_eq(&clean.data, &again.field.unwrap().data, "after heal");
    }

    /// Mutating one field triggers exactly one re-upload next cycle.
    #[test]
    fn mutating_one_field_reuploads_exactly_that_field() {
        let mut fields = small_rt_fields([4, 4, 4]);
        let mut engine = cpu_engine();
        let mut session = engine.session();
        let src = Workload::VelocityMagnitude.source();
        session.derive(src, &fields, Strategy::Fusion).unwrap();
        let uploads_before = session.stats().uploads;

        fields.touch("v");
        let report = session.derive(src, &fields, Strategy::Fusion).unwrap();
        assert_eq!(session.stats().uploads - uploads_before, 1);
        // The profile confirms it: one h2d event in the whole cycle.
        assert_eq!(report.profile.count(EventKind::HostToDevice), 1);
    }

    /// Session results are identical to one-shot results for every strategy.
    #[test]
    fn session_results_match_one_shot_per_strategy() {
        let fields = small_rt_fields([6, 5, 4]);
        for workload in Workload::ALL {
            for strategy in Strategy::ALL {
                let mut engine = cpu_engine();
                let one_shot = engine
                    .derive(workload.source(), &fields, strategy)
                    .unwrap()
                    .field
                    .unwrap();
                let mut session = engine.session();
                for _ in 0..3 {
                    let again = session
                        .derive(workload.source(), &fields, strategy)
                        .unwrap()
                        .field
                        .unwrap();
                    assert_eq!(
                        one_shot.data, again.data,
                        "{workload}/{strategy}: session result drifted"
                    );
                }
            }
        }
    }

    /// Model vs. Real event-count parity for a multi-cycle session: the
    /// modeled protocol (counts and virtual clock) must not depend on
    /// whether data movement actually happens.
    #[test]
    fn model_and_real_sessions_agree_on_events_and_clock() {
        let run = |mode: ExecMode| {
            let dims = [6, 5, 4];
            let mut fields = match mode {
                ExecMode::Real => small_rt_fields(dims),
                ExecMode::Model => FieldSet::virtual_rt(dims),
            };
            let mut engine = Engine::with_options(
                DeviceProfile::intel_x5660(),
                EngineOptions {
                    mode,
                    ..Default::default()
                },
            );
            let mut session = engine.session();
            let src = Workload::VelocityMagnitude.source();
            let n = fields.ncells();
            let mut per_cycle = Vec::new();
            for cycle in 0..5u32 {
                if cycle > 0 {
                    match mode {
                        ExecMode::Real => {
                            fields.update_scalar("u", &vec![cycle as f32; n]).unwrap()
                        }
                        ExecMode::Model => {
                            fields.touch("u");
                        }
                    }
                }
                for strategy in [Strategy::Fusion, Strategy::Staged] {
                    let report = session.derive(src, &fields, strategy).unwrap();
                    per_cycle.push((
                        report.table2_row(),
                        report.high_water_bytes(),
                        report.device_seconds(),
                    ));
                }
            }
            (per_cycle, session.stats().clone())
        };
        let (real, real_stats) = run(ExecMode::Real);
        let (model, model_stats) = run(ExecMode::Model);
        assert_eq!(real_stats, model_stats, "session counters diverge");
        assert_eq!(real.len(), model.len());
        for (i, (r, m)) in real.iter().zip(&model).enumerate() {
            assert_eq!(r.0, m.0, "cycle {i}: event counts");
            assert_eq!(r.1, m.1, "cycle {i}: high water");
            assert!((r.2 - m.2).abs() < 1e-15, "cycle {i}: device seconds");
        }
    }

    /// The session's pooled context recycles transient buffers: after the
    /// first cycle, fusion's output buffer comes from the pool.
    #[test]
    fn session_pool_recycles_transient_buffers() {
        let fields = small_rt_fields([4, 4, 4]);
        let mut engine = cpu_engine();
        let mut session = engine.session();
        let src = Workload::VelocityMagnitude.source();
        session.derive(src, &fields, Strategy::Fusion).unwrap();
        assert_eq!(session.pool_hits(), 0, "first cycle allocates fresh");
        session.derive(src, &fields, Strategy::Fusion).unwrap();
        assert!(session.pool_hits() >= 1, "second cycle reuses the pool");
    }

    /// Session trace spans tag cached work, and each cycle's report trace
    /// is scoped to that cycle.
    #[test]
    fn session_trace_tags_cached_work_per_cycle() {
        let fields = small_rt_fields([4, 4, 4]);
        let mut engine = cpu_engine();
        engine.set_tracer(Tracer::new());
        let mut session = engine.session();
        let src = Workload::VelocityMagnitude.source();
        let first = session.derive(src, &fields, Strategy::Fusion).unwrap();
        let second = session.derive(src, &fields, Strategy::Fusion).unwrap();
        let names = |trace: &dfg_trace::Trace| -> Vec<String> {
            trace.spans().iter().map(|s| s.name.clone()).collect()
        };
        let first = names(&first.trace.unwrap());
        let second = names(&second.trace.unwrap());
        assert!(first.contains(&"fusion.codegen".to_string()));
        assert!(!first.contains(&"codegen.cached".to_string()));
        assert!(second.contains(&"codegen.cached".to_string()));
        assert!(second.contains(&"upload.skipped".to_string()));
        assert!(!second.contains(&"fusion.codegen".to_string()));
        assert_eq!(
            second.iter().filter(|n| *n == "derive").count(),
            1,
            "per-cycle trace holds exactly this cycle's root"
        );
    }

    /// Satellite regression: one-shot `derive` reports are scoped per run —
    /// a second derive's trace does not carry the first run's spans.
    #[test]
    fn one_shot_reports_scope_traces_per_run() {
        let fields = small_rt_fields([4, 4, 4]);
        let mut engine = cpu_engine();
        engine.set_tracer(Tracer::new());
        let src = Workload::VelocityMagnitude.source();
        let a = engine.derive(src, &fields, Strategy::Fusion).unwrap();
        let b = engine.derive(src, &fields, Strategy::Fusion).unwrap();
        let roots = |t: &dfg_trace::Trace| t.spans().iter().filter(|s| s.name == "derive").count();
        assert_eq!(roots(&a.trace.unwrap()), 1);
        assert_eq!(roots(&b.trace.unwrap()), 1, "second report is per-run");
        // The engine's tracer still accumulates the whole history.
        assert_eq!(roots(&engine.tracer().unwrap().snapshot()), 2);
    }

    /// A kernel-cache hit runs the very step list the miss lowered: a
    /// session's second derive lowers (and cuts) nothing.
    #[test]
    fn cached_kernel_shares_the_lowered_steps() {
        use crate::session::SessionState;
        use crate::strategies::fused_kernel;
        let spec = compile(Workload::QCriterion.source()).unwrap();
        let mut ctx = dfg_ocl::Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let mut state = SessionState::default();
        let mut kernel = |label: &str, streamed: bool| {
            let session = Some(&mut state);
            fused_kernel(&spec, &[spec.result], &mut ctx, session, label, streamed)
                .unwrap()
                .0
        };
        let (miss, hit) = (kernel("first", false), kernel("second", false));
        assert!(hit.shares_steps_with(&miss));
        // The slab variant is another cache slot: lowered once, too.
        let (slab_miss, slab_hit) = (kernel("first", true), kernel("second", true));
        assert!(slab_hit.shares_steps_with(&slab_miss));
        assert!(!slab_miss.shares_steps_with(&miss));
        let stats = &state.stats;
        assert_eq!((stats.codegen_compiles, stats.codegen_cached), (2, 2));
    }

    /// Streamed derivation through a session caches codegen and matches the
    /// one-shot streamed result.
    #[test]
    fn session_streamed_caches_codegen() {
        let fields = small_rt_fields([6, 5, 4]);
        let mut engine = cpu_engine();
        let budget = Some(20 * 1024);
        let one_shot = engine
            .derive_streamed(Workload::QCriterion.source(), &fields, budget)
            .unwrap()
            .field
            .unwrap();
        let mut session = engine.session();
        for _ in 0..3 {
            let got = session
                .derive_streamed(Workload::QCriterion.source(), &fields, budget)
                .unwrap()
                .field
                .unwrap();
            assert_eq!(one_shot.data, got.data);
        }
        assert_eq!(session.stats().codegen_compiles, 1);
        assert_eq!(session.stats().codegen_cached, 2);
        assert!(session.pool_hits() > 0, "slab buffers recycle via the pool");
    }

    /// derive_many through a session: amortized multi-output fusion.
    #[test]
    fn session_derive_many_amortizes() {
        let fields = small_rt_fields([5, 5, 5]);
        let mut engine = cpu_engine();
        let source = format!(
            "{}\nw_mag = norm(curl(u, v, w, dims, x, y, z))\n",
            Workload::QCriterion.source().trim_end()
        );
        let source = source.as_str();
        let (one_shot, _) = engine
            .derive_many(source, &["w_mag", "q_crit"], &fields, Strategy::Fusion)
            .unwrap();
        let mut session = engine.session();
        for _ in 0..3 {
            let (got, _) = session
                .derive_many(source, &["w_mag", "q_crit"], &fields, Strategy::Fusion)
                .unwrap();
            assert_eq!(got.len(), 2);
            for ((n0, f0), (n1, f1)) in one_shot.iter().zip(&got) {
                assert_eq!(n0, n1);
                assert_eq!(f0.data, f1.data);
            }
        }
        assert_eq!(session.stats().codegen_compiles, 1);
        assert_eq!(
            session.stats().uploads,
            7,
            "u v w x y z dims upload once for three cycles"
        );
    }

    /// A resident is trusted on name + size + generation, so generations
    /// must tell two field sets apart: two grids of equal cell count through
    /// one session (what `dfg-serve` does per tenant) each get their own
    /// answer, and all seven inputs of the second upload.
    #[test]
    fn two_grids_of_equal_cell_count_never_share_a_resident() {
        let src = Workload::QCriterion.source();
        let mut engine = cpu_engine();
        let mut session = engine.session();
        for (cycle, dims) in [[8, 8, 8], [16, 8, 4], [8, 8, 8]].into_iter().enumerate() {
            let fields = small_rt_fields(dims);
            assert_eq!(fields.ncells(), 512);
            let got = session.derive(src, &fields, Strategy::Fusion).unwrap();
            let fresh = cpu_engine().derive(src, &fields, Strategy::Fusion).unwrap();
            assert_bits_eq(
                &fresh.field.unwrap().data,
                &got.field.unwrap().data,
                &format!("grid {dims:?}"),
            );
            assert_eq!(session.stats().uploads, 7 * (cycle as u64 + 1));
        }
        assert_eq!(session.stats().uploads_skipped, 0);
    }

    /// Clones share generations (and contents) until one is updated; two
    /// clones updated apart must not look alike to the session.
    #[test]
    fn clones_updated_apart_are_told_apart() {
        let src = Workload::VelocityMagnitude.source();
        let mut a = small_rt_fields([4, 4, 4]);
        let mut b = a.clone();
        let n = a.ncells();
        let mut engine = cpu_engine();
        let mut session = engine.session();
        session.derive(src, &a, Strategy::Fusion).unwrap();
        session.derive(src, &b, Strategy::Fusion).unwrap();
        assert_eq!(session.stats().uploads_skipped, 3, "an untouched clone");
        a.update_scalar("u", &vec![2.0; n]).unwrap();
        b.update_scalar("u", &vec![5.0; n]).unwrap();
        for fields in [&a, &b, &a] {
            let got = session.derive(src, fields, Strategy::Fusion).unwrap();
            let fresh = cpu_engine().derive(src, fields, Strategy::Fusion).unwrap();
            assert_bits_eq(
                &fresh.field.unwrap().data,
                &got.field.unwrap().data,
                "clone updated apart",
            );
        }
    }

    /// The session's residents *are* the host's arrays, so an update between
    /// two cycles must land in a fresh array: the second result changes,
    /// while the first result, the handle taken before the update and the
    /// resident (until its re-upload) keep the old bits.
    #[test]
    fn update_between_cycles_changes_the_next_result_only() {
        let src = "r = u + v";
        let mut fields = small_rt_fields([4, 4, 4]);
        let n = fields.ncells();
        let mut engine = cpu_engine();
        let mut session = engine.session();
        let first = session.derive(src, &fields, Strategy::Staged).unwrap();
        let first = first.field.unwrap();
        let first_bits: Vec<u32> = first.data.iter().map(|v| v.to_bits()).collect();
        let old_u = fields.get("u").unwrap().data.clone().unwrap();
        let old_bits: Vec<u32> = old_u.iter().map(|v| v.to_bits()).collect();

        fields.update_scalar("u", &vec![9.0; n]).unwrap();
        assert!(old_u
            .iter()
            .map(|v| v.to_bits())
            .eq(old_bits.iter().copied()));
        let second = session.derive(src, &fields, Strategy::Staged).unwrap();
        let second = second.field.unwrap();
        let fresh = cpu_engine().derive(src, &fields, Strategy::Staged).unwrap();
        assert_bits_eq(&fresh.field.unwrap().data, &second.data, "after update");
        assert_ne!(first.data, second.data);
        assert!(first.data.iter().map(|v| v.to_bits()).eq(first_bits));
        assert_eq!(session.stats().uploads, 2 + 1, "only `u` went up again");
    }

    /// A `mem_flip` on an adopted resident under full verification: caught
    /// at the launch, healed by the re-upload, and the host's field set —
    /// whose arrays the residents share — keeps every bit.
    #[test]
    fn mem_flip_on_an_adopted_resident_never_reaches_the_field_set() {
        use dfg_ocl::{FaultKind, FaultPlan, VerifyPolicy};
        let src = Workload::VelocityMagnitude.source();
        let fields = small_rt_fields([5, 4, 3]);
        let bits = |fields: &FieldSet| -> Vec<Vec<u32>> {
            ["u", "v", "w"]
                .iter()
                .map(|name| {
                    let data = fields.get(name).unwrap().data.as_deref().unwrap();
                    data.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let before = bits(&fields);
        let clean = cpu_engine().derive(src, &fields, Strategy::Fusion).unwrap();
        let plan = FaultPlan::with_seed(9);
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                verify: VerifyPolicy::Full,
                ..Default::default()
            },
        );
        engine.set_fault_plan(plan.clone());
        let mut session = engine.session();
        session.derive(src, &fields, Strategy::Fusion).unwrap();
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        let err = session.derive(src, &fields, Strategy::Fusion).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        assert_eq!(session.context().integrity_stats().violations, 1);
        assert_eq!(bits(&fields), before, "the flip stayed on the device side");
        let healed = session.derive(src, &fields, Strategy::Fusion).unwrap();
        assert_eq!(session.stats().integrity_healed, 1);
        assert_bits_eq(
            &clean.field.unwrap().data,
            &healed.field.unwrap().data,
            "after heal",
        );
        assert_eq!(bits(&fields), before);
    }
}

// ---------------------------------------------------------------------------
// Host bytes copied: "zero-copy" as an asserted number.
// ---------------------------------------------------------------------------

/// Whole-field uploads adopt the host's arrays, and the last read of a
/// scalar result hands its storage to the host, so a one-shot derive and
/// every cycle of a session (whose context pools: the slot parks bare)
/// copy nothing — while the modeled transfer volume, which is what the
/// paper counts, is what it always was. A staged `Vec4` root is
/// interleaved, so it copies its download; slab uploads are borrowed
/// windows and are copied; a model run copies nothing at all.
#[test]
fn host_bytes_copied_is_what_the_host_could_not_take_over() {
    use dfg_ocl::EventKind::{DeviceToHost, HostToDevice};
    let fields = small_rt_fields([6, 5, 4]);
    let n = fields.ncells() as u64;
    let src = Workload::QCriterion.source();
    for strategy in Strategy::ALL {
        let profile = cpu_engine().derive(src, &fields, strategy).unwrap().profile;
        assert_eq!(profile.host_bytes_copied, 0, "{strategy}");
        assert!(profile.bytes(DeviceToHost) >= 4 * n, "{strategy}");
        assert!(profile.bytes(HostToDevice) >= 6 * 4 * n + 12, "{strategy}");
    }
    let reference = cpu_engine()
        .run_reference(Workload::QCriterion, &fields)
        .unwrap()
        .profile;
    assert_eq!(reference.host_bytes_copied, 0, "reference");
    assert_eq!(reference.bytes(DeviceToHost), 4 * n, "reference");
    let gradient = "g = grad3d(u, dims, x, y, z)";
    for strategy in Strategy::ALL {
        let profile = cpu_engine()
            .derive(gradient, &fields, strategy)
            .unwrap()
            .profile;
        let interleaved = if strategy == Strategy::Staged {
            16 * n
        } else {
            0
        };
        assert_eq!(profile.bytes(DeviceToHost), 16 * n, "{strategy}");
        assert_eq!(profile.host_bytes_copied, interleaved, "{strategy}");
    }
    let mut engine = cpu_engine();
    let mut session = engine.session();
    let mut dirty = fields.clone();
    for cycle in 0..3 {
        dirty
            .update_scalar("u", &vec![cycle as f32; n as usize])
            .unwrap();
        let profile = session
            .derive(src, &dirty, Strategy::Fusion)
            .unwrap()
            .profile;
        assert_eq!(profile.host_bytes_copied, 0, "cycle {cycle}");
        let uploaded = if cycle == 0 { 6 * 4 * n + 12 } else { 4 * n };
        assert_eq!(profile.bytes(HostToDevice), uploaded, "cycle {cycle}");
    }
    let streamed = cpu_engine()
        .derive_streamed(src, &fields, Some(8 * 4 * (6 * 5 * 3)))
        .unwrap()
        .profile;
    assert!(streamed.count(HostToDevice) > 7, "several slabs");
    assert_eq!(
        streamed.host_bytes_copied,
        streamed.bytes(HostToDevice) + streamed.bytes(DeviceToHost)
    );
    let mut model = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let modeled = model
        .derive(src, &FieldSet::virtual_rt([6, 5, 4]), Strategy::Fusion)
        .unwrap()
        .profile;
    assert_eq!(modeled.host_bytes_copied, 0);
    assert_eq!(modeled.bytes(HostToDevice), 6 * 4 * n + 12);
}

/// The host-copies table (CI prints it with `--nocapture`): per paper
/// expression, path and run, the bytes downloaded beside the bytes the host
/// copied, the bytes whose storage was handed over (the `handed_over` lanes
/// of the `*.download` spans), the bytes zero-filled and the bytes hashed. A
/// one-shot and a session cycle hand over every download; streamed copies
/// its slab windows both ways. A session row is its second cycle, at each
/// verification level: the inputs are adopted arrays, not hashed while
/// they are the host's, so a `vel_mag` fusion cycle hashes nothing under
/// `residents`, and under `full` only its result, twice — learned at the
/// launch and checked at the download.
#[test]
fn host_copies_table() {
    use dfg_ocl::EventKind::{DeviceToHost, HostToDevice};
    use dfg_ocl::VerifyPolicy;
    use dfg_trace::Tracer;
    let fields = small_rt_fields([6, 5, 4]);
    let paths = Strategy::ALL.map(Some).into_iter().chain([None]);
    let runs = [
        ("one-shot", VerifyPolicy::Off),
        ("session", VerifyPolicy::Off),
        ("session `residents`", VerifyPolicy::Residents),
        ("session `full`", VerifyPolicy::Full),
    ];
    println!("| expression | path | run | downloaded B | copied B | handed over B | zeroed B | hashed B |");
    println!("|---|---|---|---|---|---|---|---|");
    for (name, workload) in [
        ("vel_mag", Workload::VelocityMagnitude),
        ("q_crit", Workload::QCriterion),
    ] {
        let src = workload.source();
        for path in paths.clone() {
            for (run, verify) in runs {
                let options = EngineOptions {
                    verify,
                    ..Default::default()
                };
                let mut engine = Engine::with_options(DeviceProfile::intel_x5660(), options);
                engine.set_tracer(Tracer::new());
                let report = match (run, path) {
                    ("one-shot", Some(strategy)) => engine.derive(src, &fields, strategy),
                    ("one-shot", None) => engine.derive_streamed(src, &fields, None),
                    _ => {
                        let mut session = engine.session();
                        let mut cycle = || match path {
                            Some(strategy) => session.derive(src, &fields, strategy),
                            None => session.derive_streamed(src, &fields, None),
                        };
                        cycle().unwrap();
                        cycle()
                    }
                }
                .unwrap();
                let handed_over: u64 = (report.trace.unwrap().spans().iter())
                    .filter(|s| s.name.ends_with(".download"))
                    .filter_map(|s| s.meta_u64("handed_over"))
                    .sum::<u64>()
                    * 4;
                let profile = report.profile;
                let (down, up) = (profile.bytes(DeviceToHost), profile.bytes(HostToDevice));
                let (copied, zeroed) = (profile.host_bytes_copied, profile.host_bytes_zeroed);
                let hashed = profile.host_bytes_hashed;
                let path = path.map_or("streamed", |s| s.name());
                println!(
                    "| `{name}` | {path} | {run} | {down} | {copied} | {handed_over} | {zeroed} | {hashed} |"
                );
                let want = match path {
                    "streamed" => (up + down, 0),
                    _ => (0, down),
                };
                assert_eq!((copied, handed_over), want, "{name} {path} {run}");
                let want_hashed = match (name, path, verify) {
                    (_, _, VerifyPolicy::Off) | ("vel_mag", "fusion", VerifyPolicy::Residents) => 0,
                    ("vel_mag", "fusion", VerifyPolicy::Full) => 2 * down,
                    _ => hashed,
                };
                assert_eq!(hashed, want_hashed, "{name} {path} {run}");
                // Launches write fresh storage once: the context clears only
                // a `Vec4` value's fourth plane, which no kernel writes —
                // none in `vel_mag`, and `q_crit`'s three gradients.
                let n = fields.ncells() as u64;
                match (name, path) {
                    ("vel_mag", _) => assert_eq!(zeroed, 0, "{name} {path} {run}"),
                    ("q_crit", "staged") => assert_eq!(zeroed, 3 * n * 4, "{name} {run}"),
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outputs written once (DESIGN.md D11): a launch into fresh storage is its
// kernel's one pass over it. Only how storage is initialized changed, so a
// Model run records a Real run's events one for one, and verification still
// covers every lane a kernel wrote.
// ---------------------------------------------------------------------------

mod write_once {
    use super::*;
    use crate::{EngineError, RecoveryPolicy};
    use dfg_ocl::{FaultKind, FaultPlan, OclError, ProfileReport, VerifyPolicy};

    /// Every paper expression × path, one-shot and two session cycles (the
    /// second recycles the first's storage): the same events — kind, label,
    /// bytes, both clock ends, queue — and high-water mark in both modes,
    /// and a Model run zero-fills nothing.
    #[test]
    fn model_records_real_events_one_for_one() {
        let dims = [6, 5, 4];
        let paths = Strategy::ALL.map(Some).into_iter().chain([None]);
        for workload in Workload::ALL {
            for path in paths.clone() {
                let run = |mode: ExecMode| -> Vec<ProfileReport> {
                    let fields = match mode {
                        ExecMode::Real => small_rt_fields(dims),
                        // Streaming a gradient reads the grid shape on the host.
                        ExecMode::Model => {
                            let mut fields = FieldSet::virtual_rt(dims);
                            let mesh = RectilinearMesh::unit_cube(dims);
                            fields.insert_small("dims", mesh.dims_buffer());
                            fields
                        }
                    };
                    let options = EngineOptions {
                        mode,
                        ..Default::default()
                    };
                    let mut engine = Engine::with_options(DeviceProfile::intel_x5660(), options);
                    let src = workload.source();
                    let mut reports = vec![match path {
                        Some(strategy) => engine.derive(src, &fields, strategy),
                        None => engine.derive_streamed(src, &fields, None),
                    }];
                    let mut session = engine.session();
                    for _ in 0..2 {
                        reports.push(match path {
                            Some(strategy) => session.derive(src, &fields, strategy),
                            None => session.derive_streamed(src, &fields, None),
                        });
                    }
                    reports.into_iter().map(|r| r.unwrap().profile).collect()
                };
                let (real, model) = (run(ExecMode::Real), run(ExecMode::Model));
                for (run, (real, model)) in real.iter().zip(&model).enumerate() {
                    let what = format!("{workload} {path:?} run {run}");
                    assert_eq!(real.events, model.events, "{what}");
                    assert_eq!(real.high_water_bytes, model.high_water_bytes, "{what}");
                    assert_eq!(model.host_bytes_zeroed, 0, "{what}");
                }
            }
        }
    }

    /// `(u*v) * (v*w)` staged: the third launch reads two outputs the first
    /// two wrote into fresh storage. A `mem_flip` there under `verify=full`
    /// is caught — each output's checksum is learned from the lanes its
    /// kernel wrote once — on either output across seeds, and recovery gives
    /// the clean run's bits.
    #[test]
    fn mem_flip_on_a_freshly_written_output_is_detected_and_healed() {
        let src = "r = (u*v) * (v*w)";
        let fields = small_rt_fields([5, 4, 3]);
        let clean = cpu_engine().derive(src, &fields, Strategy::Staged).unwrap();
        assert_eq!(clean.table2_row().2, 3);
        let flipped = |seed: u64, recovery: RecoveryPolicy| {
            let options = EngineOptions {
                verify: VerifyPolicy::Full,
                recovery,
                ..Default::default()
            };
            let mut engine = Engine::with_options(DeviceProfile::intel_x5660(), options);
            let plan = FaultPlan::with_seed(seed);
            plan.fail_nth_from_now(FaultKind::MemFlip, 3, 1);
            engine.set_fault_plan(plan);
            engine.derive(src, &fields, Strategy::Staged)
        };
        let mut victims = std::collections::BTreeSet::new();
        for seed in 0..16 {
            match flipped(seed, RecoveryPolicy::disabled()) {
                Err(EngineError::Ocl(OclError::IntegrityViolation { buffer, .. })) => {
                    victims.insert(buffer);
                }
                other => panic!("seed {seed}: expected a detected flip, got {other:?}"),
            }
            let healed = flipped(seed, RecoveryPolicy::resilient()).unwrap();
            assert_eq!(healed.integrity.violations, 1, "seed {seed}");
            assert_bits_eq(
                &clean.field.as_ref().unwrap().data,
                &healed.field.unwrap().data,
                &format!("seed {seed}"),
            );
        }
        assert_eq!(victims.len(), 2, "both fresh outputs were hit");
    }
}

// ---------------------------------------------------------------------------
// Staged launches in place: an element-wise kernel takes the storage of an
// operand that dies with it. Only storage moves, so everything the model
// counts is unchanged, and nothing but a private, dying operand is written.
// ---------------------------------------------------------------------------

mod in_place {
    use super::*;
    use crate::recovery::Request;
    use crate::{EngineError, ExecReport, Field, RecoveryPolicy};
    use dfg_dataflow::{BinKind, FilterOp, NetworkBuilder, NetworkSpec, NodeId, Strategy, UnKind};
    use dfg_ocl::{FaultKind, FaultPlan, OclError, VerifyPolicy};
    use dfg_trace::{MetaValue, Tracer};
    use proptest::prelude::*;

    fn engine(mode: ExecMode) -> Engine {
        let options = EngineOptions {
            mode,
            ..Default::default()
        };
        Engine::with_options(DeviceProfile::intel_x5660(), options)
    }

    /// `roots` of `spec` on a fresh one-shot context, with no optimizer:
    /// the fields, the report, and the bytes the run left in use.
    fn one_shot(
        engine: &Engine,
        spec: &NetworkSpec,
        roots: &[NodeId],
        fields: &FieldSet,
        strategy: Strategy,
    ) -> (Vec<Field>, ExecReport, u64) {
        let mut ctx = engine.traced_context();
        let request = Request::Strategy(strategy);
        let (out, report) = engine
            .execute(spec, roots, fields, request, &mut ctx, None)
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        (out, report, ctx.in_use_bytes())
    }

    /// Bit for bit, except that a NaN matches any NaN: which of two NaN
    /// operands an instruction returns is the CPU's rule on the operand
    /// order the compiler chose.
    #[track_caller]
    fn assert_same_values(want: &[Field], got: &[Field], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: roots");
        for (root, (a, b)) in want.iter().zip(got).enumerate() {
            let differ = (a.data.iter().zip(&b.data))
                .position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()));
            assert_eq!(differ, None, "{what}: root {root} differs from roundtrip");
        }
    }

    /// Staged one-shot and staged in a pooled session over three cycles,
    /// each in Real and Model mode: the bits equal roundtrip's (which never
    /// computes in place or shares a plane) and fusion's, Real events equal
    /// Model events, `in_use` returns to its baseline and the pool hits
    /// equal the Model run's — a Model context has no storage to donate or
    /// share. Every download's storage is either handed to the host or
    /// copied: roundtrip and fusion one-shots copy nothing, and a staged
    /// one-shot copies what it does not hand over; a session, pooled, hands
    /// over what the one-shot does. Returns the one-shot run's launches in
    /// place and views.
    fn check(
        spec: &NetworkSpec,
        roots: &[NodeId],
        real: &FieldSet,
        model: &FieldSet,
    ) -> (usize, usize) {
        use dfg_ocl::EventKind::DeviceToHost;
        let (want, w, _) = one_shot(
            &engine(ExecMode::Real),
            spec,
            roots,
            real,
            Strategy::Roundtrip,
        );
        let (fused, f, _) = one_shot(&engine(ExecMode::Real), spec, roots, real, Strategy::Fusion);
        assert_same_values(&want, &fused, "fusion");
        let copied = |r: &ExecReport| r.profile.host_bytes_copied;
        assert_eq!((copied(&w), copied(&f)), (0, 0), "roundtrip, fusion");
        let mut traced = engine(ExecMode::Real);
        traced.set_tracer(Tracer::new());
        let (got, r, in_use) = one_shot(&traced, spec, roots, real, Strategy::Staged);
        let handed_over = |trace: &dfg_trace::Trace| -> u64 {
            (trace.spans().iter())
                .filter(|s| s.name == "staged.download")
                .map(|s| s.meta_u64("handed_over").unwrap())
                .sum()
        };
        let (_, m, _) = one_shot(
            &engine(ExecMode::Model),
            spec,
            roots,
            model,
            Strategy::Staged,
        );
        assert_same_values(&want, &got, "one-shot");
        assert_same_accounting(&r, &m, "one-shot");
        assert_eq!(in_use, 0, "one-shot");
        let one_shot_handed_over = handed_over(&traced.tracer().unwrap().snapshot());
        assert_eq!(
            copied(&r) + 4 * one_shot_handed_over,
            r.profile.bytes(DeviceToHost),
            "one-shot downloads"
        );
        let (mut real_engine, mut model_engine) = (engine(ExecMode::Real), engine(ExecMode::Model));
        real_engine.set_tracer(Tracer::new());
        let (mut sr, mut sm) = (real_engine.session(), model_engine.session());
        for cycle in 0..3 {
            let what = format!("session cycle {cycle}");
            let (got, r) = sr
                .derive_network(spec, roots, real, Strategy::Staged)
                .unwrap();
            let (_, m) = sm
                .derive_network(spec, roots, model, Strategy::Staged)
                .unwrap();
            assert_same_values(&want, &got, &what);
            assert_same_accounting(&r, &m, &what);
            assert_eq!(sr.context().in_use_bytes(), sr.resident_bytes(), "{what}");
            assert_eq!(sr.pool_hits(), sm.pool_hits(), "{what}: pool hits");
            let session_handed_over = handed_over(r.trace.as_ref().unwrap());
            assert_eq!(
                session_handed_over, one_shot_handed_over,
                "{what}: handed over"
            );
            let downloads = r.profile.bytes(DeviceToHost);
            assert_eq!(
                copied(&r) + 4 * session_handed_over,
                downloads,
                "{what}: downloads"
            );
        }
        let trace = traced.tracer().unwrap().snapshot();
        let count = |flag: &str| {
            let set = Some(&MetaValue::Bool(true));
            (trace.spans().iter())
                .filter(|s| s.name == "staged.kernel" && s.meta_get(flag) == set)
                .count()
        };
        (count("in_place"), count("view"))
    }

    /// Values on which a changed operand, order or sign shows.
    const PALETTE: [f32; 16] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0e-40,
        -3.0e-42,
        f32::MIN_POSITIVE,
        f32::MAX,
        1.0,
        -1.0,
        0.5,
        -2.5,
        3.0e-20,
        -7.0e19,
        16_777_217.0,
    ];

    /// Inputs `a`, `b`, `c` of `n` cells drawn from [`PALETTE`] with the
    /// strides and offsets in `picks`, real and virtual.
    fn inputs(n: usize, picks: &[usize]) -> (FieldSet, FieldSet) {
        let (mut real, mut model) = (FieldSet::new(n), FieldSet::new(n));
        for (t, name) in ["a", "b", "c"].into_iter().enumerate() {
            let stride = 2 * picks[t] + 1;
            let lanes = (0..n).map(|i| PALETTE[(i * stride + picks[t + 1]) % 16]);
            real.insert_scalar(name, lanes.collect()).unwrap();
            model.insert_virtual_scalar(name);
        }
        (real, model)
    }

    /// The hazards of computing in place, one network: `t*t` and `t-t` on a
    /// dying `t`, a donor on the right of `Sub`, `Div` and `Pow`, a root
    /// that a later launch reads, a bare input as an operand and as a root.
    #[test]
    fn in_place_hazards_match_roundtrip() {
        let mut b = NetworkBuilder::new();
        let (x, y, z) = (b.input("a"), b.input("b"), b.input("c"));
        let t = b.binary(BinKind::Add, x, y);
        let tt = b.binary(BinKind::Mul, t, t);
        let s = b.binary(BinKind::Mul, x, z);
        let ss = b.binary(BinKind::Sub, s, s);
        let d = b.binary(BinKind::Div, z, tt);
        let p = b.binary(BinKind::Pow, y, d);
        let q = b.binary(BinKind::Sub, x, p);
        let r = b.binary(BinKind::Atan2, ss, q);
        let root = b.unary(UnKind::Abs, r);
        let spec = b.finish(root);
        let (real, model) = inputs(4099, &[3, 1, 4, 1]);
        for roots in [vec![root], vec![q, root, x], vec![d, ss, root, y]] {
            assert!(check(&spec, &roots, &real, &model).0 >= 4, "{roots:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random element-wise DAGs over every `BinKind` and `UnKind`, with
        /// shared subexpressions, `x op x`, several roots (some read later,
        /// some bare inputs) and a constant, over signed zeros, infinities,
        /// NaN and subnormals: see [`check`]. The vector sibling below is
        /// the same check over `Vec4` values.
        #[test]
        fn random_elementwise_dags_in_place_match_roundtrip(
            nodes in prop::collection::vec((0usize..25, 0usize..1000, 0usize..1000, 0u8..4), 1..14),
            roots in prop::collection::vec(0usize..1000, 1..4),
            picks in prop::collection::vec(0usize..16, 5..6),
            n in 1usize..3000,
        ) {
            let mut b = NetworkBuilder::new();
            let mut values = vec![b.input("a"), b.input("b"), b.input("c")];
            values.push(b.constant(PALETTE[picks[4]]));
            for (op, i, j, pair) in nodes {
                // One node in four reads one value twice (`t*t`, `t-t`).
                let x = values[i % values.len()];
                let y = if pair == 0 { x } else { values[j % values.len()] };
                values.push(match BinKind::ALL.get(op) {
                    Some(&kind) => b.binary(kind, x, y),
                    None => b.unary(UnKind::ALL[op - BinKind::ALL.len()], x),
                });
            }
            let roots: Vec<NodeId> = roots.iter().map(|r| values[r % values.len()]).collect();
            let spec = b.finish(roots[0]);
            let (real, model) = inputs(n, &picks);
            check(&spec, &roots, &real, &model);
        }

        /// Random DAGs over vector values: gradients of smooth and of
        /// special-valued fields, `vector`, `cross`, `dot`, `norm` and a
        /// `decompose` of every lane (the zero fourth too), beside
        /// element-wise steps, with shared subexpressions and scalar and
        /// `Vec4` roots, on ragged grids (one of them over a minimum task):
        /// see [`check`], under the pool and serially.
        #[test]
        fn random_vector_dags_match_across_strategies(
            nodes in prop::collection::vec((0usize..9, 0usize..1000, 0usize..1000, 0usize..1000), 2..20),
            roots in prop::collection::vec(0usize..1000, 0..3),
            picks in prop::collection::vec(0usize..16, 5..6),
            grid in 0usize..3,
        ) {
            let mut b = NetworkBuilder::new();
            let dims = b.small_input("dims");
            let [x, y, z] = ["x", "y", "z"].map(|axis| b.input(axis));
            let mut scalars = ["u", "v", "w", "a", "b", "c"].map(|name| b.input(name)).to_vec();
            let mut vectors = vec![b.grad3d(scalars[0], dims, x, y, z)];
            // An even draw takes one of the three newest values (a chain),
            // an odd one any value (a shared subexpression).
            let pick = |values: &[NodeId], t: usize| {
                let len = values.len();
                values[if t.is_multiple_of(2) { len - 1 - t / 2 % len.min(3) } else { t / 2 % len }]
            };
            let mut last = vectors[0];
            for (op, i, j, k) in nodes {
                let [si, sj, sk] = [i, j, k].map(|t| pick(&scalars, t));
                let [vi, vj] = [i, j].map(|t| pick(&vectors, t));
                let (list, value) = match op {
                    // Fusion differentiates inputs only.
                    0 => (&mut vectors, b.grad3d(scalars[i % 6], dims, x, y, z)),
                    1 => (&mut vectors, b.compose3(si, sj, sk)),
                    2 => (&mut vectors, b.binary(FilterOp::Cross3, vi, vj)),
                    3 => (&mut scalars, b.binary(FilterOp::Dot3, vi, vj)),
                    4 => (&mut scalars, b.unary(FilterOp::Norm3, vi)),
                    5 | 6 => (&mut scalars, b.decompose(vi, (k % 4) as u8)),
                    _ => (&mut scalars, b.binary(BinKind::ALL[k % BinKind::ALL.len()], si, sj)),
                };
                list.push(value);
                last = value;
            }
            let values: Vec<NodeId> = scalars.iter().chain(&vectors).copied().collect();
            let roots: Vec<NodeId> = std::iter::once(last)
                .chain(roots.iter().map(|r| values[r % values.len()]))
                .collect();
            let spec = b.finish(last);
            let (real, model) = mesh_inputs([[37, 5, 3], [4, 1, 6], [41, 23, 19]][grid], &picks);
            let pooled = check(&spec, &roots, &real, &model);
            let serial = dfg_exec::with_serial(|| check(&spec, &roots, &real, &model));
            prop_assert_eq!(pooled, serial);
        }
    }

    /// [`inputs`] beside the fields of a `dims` grid: `x`, `y`, `z`, `dims`
    /// and the smooth velocity `u`, `v`, `w`.
    fn mesh_inputs(dims: [usize; 3], picks: &[usize]) -> (FieldSet, FieldSet) {
        let (mut real, mut model) = (small_rt_fields(dims), FieldSet::virtual_rt(dims));
        let (palette, _) = inputs(real.ncells(), picks);
        for name in ["a", "b", "c"] {
            let lanes = palette.get(name).and_then(|f| f.data.as_deref()).unwrap();
            real.insert_scalar(name, lanes.to_vec()).unwrap();
            model.insert_virtual_scalar(name);
        }
        (real, model)
    }

    /// A resident is the session's, not the launch's. A flip and its undo
    /// give each resident private storage with its checksum intact — the
    /// state a `mem_flip` leaves — and still no launch takes it: the next
    /// three cycles skip every upload and verify clean under
    /// `verify=residents`.
    #[test]
    fn a_session_resident_is_never_donated() {
        let src = "r = u*u + v";
        let fields = small_rt_fields([5, 4, 3]);
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                verify: VerifyPolicy::Residents,
                ..Default::default()
            },
        );
        let mut session = engine.session();
        let first = session.derive(src, &fields, Strategy::Staged).unwrap();
        let residents: Vec<_> = session.state.resident.values().map(|r| r.buf).collect();
        assert_eq!(residents.len(), 2);
        for &buf in &residents {
            session.context_mut().debug_flip_bit(buf, 0, 0);
            session.context_mut().debug_flip_bit(buf, 0, 0);
        }
        let skipped = session.stats().uploads_skipped;
        for cycle in 0..3 {
            let again = session.derive(src, &fields, Strategy::Staged).unwrap();
            assert_bits_eq(
                &first.field.as_ref().unwrap().data,
                &again.field.unwrap().data,
                &format!("cycle {cycle}"),
            );
        }
        assert_eq!(session.stats().uploads_skipped, skipped + 3 * 2);
        assert_eq!(session.stats().integrity_healed, 0);
        for &buf in &residents {
            session.context_mut().verify_buffer(buf).unwrap();
        }
        assert_eq!(session.context().integrity_stats().violations, 0);
    }

    /// `r = u*u + u`: the add computes into `t = u*u`, which dies with it,
    /// beside `u`, an adopted array that dies too. A `mem_flip` before the
    /// add under `verify=full` lands on the donor for some seeds and on the
    /// bystander for others; either way it is detected, and recovery gives
    /// the clean run's bits.
    #[test]
    fn mem_flip_on_a_donor_or_a_bystander_is_detected_and_healed() {
        let src = "r = u*u + u";
        let fields = small_rt_fields([5, 4, 3]);
        let clean = cpu_engine().derive(src, &fields, Strategy::Staged).unwrap();
        let flipped = |seed: u64, recovery: RecoveryPolicy| {
            let mut engine = Engine::with_options(
                DeviceProfile::intel_x5660(),
                EngineOptions {
                    verify: VerifyPolicy::Full,
                    recovery,
                    ..Default::default()
                },
            );
            let plan = FaultPlan::with_seed(seed);
            plan.fail_nth_from_now(FaultKind::MemFlip, 2, 1);
            engine.set_fault_plan(plan);
            engine.derive(src, &fields, Strategy::Staged)
        };
        let mut victims = std::collections::BTreeSet::new();
        for seed in 0..32 {
            // Without recovery the violation names the flipped buffer.
            match flipped(seed, RecoveryPolicy::disabled()) {
                Err(EngineError::Ocl(OclError::IntegrityViolation { buffer, .. })) => {
                    victims.insert(buffer);
                }
                other => panic!("seed {seed}: expected a detected flip, got {other:?}"),
            }
            let healed = flipped(seed, RecoveryPolicy::resilient()).unwrap();
            assert_eq!(healed.integrity.violations, 1, "seed {seed}");
            assert_bits_eq(
                &clean.field.as_ref().unwrap().data,
                &healed.field.unwrap().data,
                &format!("seed {seed}"),
            );
        }
        assert_eq!(
            victims.len(),
            2,
            "the donor and the bystander were both hit"
        );
    }

    /// `g[0]*g[1] + g[2]*g[0]` of one gradient: its two products read only
    /// views of `g`'s planes, and its three `decompose`s read `g`. A
    /// `mem_flip` at each of the seven launches under `verify=full` — on a
    /// view, on `g`, on an input — is detected, and recovery gives the
    /// clean run's bits.
    #[test]
    fn mem_flip_on_a_viewed_plane_is_detected_and_healed() {
        let src = "g = grad3d(u, dims, x, y, z)\nr = g[0] * g[1] + g[2] * g[0]";
        let fields = small_rt_fields([7, 5, 3]);
        let clean = cpu_engine().derive(src, &fields, Strategy::Staged).unwrap();
        assert_eq!(clean.table2_row().2, 7);
        let flipped = |nth: u64, seed: u64, recovery: RecoveryPolicy| {
            let mut engine = Engine::with_options(
                DeviceProfile::intel_x5660(),
                EngineOptions {
                    verify: VerifyPolicy::Full,
                    recovery,
                    ..Default::default()
                },
            );
            let plan = FaultPlan::with_seed(seed);
            plan.fail_nth_from_now(FaultKind::MemFlip, nth, 1);
            engine.set_fault_plan(plan);
            engine.derive(src, &fields, Strategy::Staged)
        };
        for (nth, seed) in (1..=7).flat_map(|nth| (0..3).map(move |seed| (nth, seed))) {
            let what = format!("launch {nth}, seed {seed}");
            let detected = flipped(nth, seed, RecoveryPolicy::disabled());
            assert!(
                matches!(
                    detected,
                    Err(EngineError::Ocl(OclError::IntegrityViolation { .. }))
                ),
                "{what}: {detected:?}"
            );
            let healed = flipped(nth, seed, RecoveryPolicy::resilient()).unwrap();
            assert_eq!(healed.integrity.violations, 1, "{what}");
            assert_bits_eq(
                &clean.field.as_ref().unwrap().data,
                &healed.field.unwrap().data,
                &what,
            );
        }
    }

    /// Only the last read of a computed root hands its storage over. A root
    /// read twice is copied first, and a bare-input root — an adopted array
    /// in a one-shot, a resident in a session — is copied and stays the
    /// input's. Every read keeps its bits, one-shot and over three session
    /// cycles (see [`check`]), and the one-shot hands over exactly the last
    /// reads of its two computed roots.
    #[test]
    fn a_root_read_twice_a_bare_input_root_and_a_resident_keep_their_bits() {
        let mut b = NetworkBuilder::new();
        let (x, y, z) = (b.input("a"), b.input("b"), b.input("c"));
        let t = b.binary(BinKind::Mul, x, y);
        let r = b.binary(BinKind::Add, t, z);
        let spec = b.finish(r);
        let n = 257;
        let (real, model) = inputs(n, &[3, 1, 4, 1]);
        let roots = [r, t, r, x, t, x];
        check(&spec, &roots, &real, &model);
        let mut traced = engine(ExecMode::Real);
        traced.set_tracer(Tracer::new());
        let (got, report, _) = one_shot(&traced, &spec, &roots, &real, Strategy::Staged);
        let download = (traced.tracer().unwrap().snapshot().spans().iter())
            .find(|s| s.name == "staged.download")
            .and_then(|s| s.meta_u64("handed_over"));
        assert_eq!(download, Some(2 * n as u64));
        assert_eq!(report.profile.host_bytes_copied, 4 * 4 * n as u64);
        let a = real.get("a").and_then(|f| f.data.as_deref()).unwrap();
        for field in [&got[3], &got[5]] {
            assert_bits_eq(&field.data, a, "bare-input root");
        }
    }

    /// `t = a*b` is a root that the launch of `r = t + c` reads. A
    /// `mem_flip` at that launch lands on `t` for some seeds: without
    /// verification the flipped root reaches the host; under `verify=full`
    /// it is caught at the launch, before its storage could be handed over,
    /// and recovery gives the clean run's bits.
    #[test]
    fn mem_flip_on_a_root_is_caught_before_it_is_handed_over() {
        let mut b = NetworkBuilder::new();
        let (x, y, z) = (b.input("a"), b.input("b"), b.input("c"));
        let t = b.binary(BinKind::Mul, x, y);
        let r = b.binary(BinKind::Add, t, z);
        let spec = b.finish(r);
        let (real, _) = inputs(301, &[5, 2, 7, 3]);
        let run = |seed: Option<u64>, verify: VerifyPolicy, recovery: RecoveryPolicy| {
            let options = EngineOptions {
                verify,
                recovery,
                ..Default::default()
            };
            let mut engine = Engine::with_options(DeviceProfile::intel_x5660(), options);
            if let Some(seed) = seed {
                let plan = FaultPlan::with_seed(seed);
                plan.fail_nth_from_now(FaultKind::MemFlip, 2, 1);
                engine.set_fault_plan(plan);
            }
            let mut ctx = engine.traced_context();
            let request = Request::Strategy(Strategy::Staged);
            let out = engine.execute(&spec, &[t, r], &real, request, &mut ctx, None);
            out.map(|(fields, report)| (fields, report.integrity.violations))
        };
        let (clean, _) = run(None, VerifyPolicy::Off, RecoveryPolicy::disabled()).unwrap();
        let mut corrupted = 0;
        for seed in 0..16 {
            let (silent, _) =
                run(Some(seed), VerifyPolicy::Off, RecoveryPolicy::disabled()).unwrap();
            corrupted += usize::from(silent[0].data != clean[0].data);
            let caught = run(Some(seed), VerifyPolicy::Full, RecoveryPolicy::disabled());
            assert!(
                matches!(
                    caught,
                    Err(EngineError::Ocl(OclError::IntegrityViolation { .. }))
                ),
                "seed {seed}: {caught:?}"
            );
            let (healed, violations) =
                run(Some(seed), VerifyPolicy::Full, RecoveryPolicy::resilient()).unwrap();
            assert_eq!(violations, 1, "seed {seed}");
            assert_same_values(&clean, &healed, &format!("seed {seed}"));
        }
        assert!(corrupted > 0, "no seed flipped the root");
    }

    /// A last read on a pooled context parks the buffer exactly as a read
    /// and a release did: a three-cycle session's pool hits, per paper
    /// expression and strategy, are the figures from before last reads
    /// consumed their buffers.
    #[test]
    fn a_session_keeps_its_pool_hits() {
        let fields = small_rt_fields([6, 5, 4]);
        let hits = Workload::ALL.map(|workload| {
            Strategy::ALL.map(|strategy| {
                let mut engine = cpu_engine();
                let mut session = engine.session();
                for _ in 0..3 {
                    session
                        .derive(workload.source(), &fields, strategy)
                        .unwrap();
                }
                session.pool_hits()
            })
        });
        assert_eq!(hits, [[30, 15, 2], [83, 46, 2], [491, 182, 2]]);
    }

    /// Poisoned releases (`DFG_POOL_POISON=1`) include the storage a donor
    /// gets in exchange, and a view parks without storage: a staged
    /// session's bits do not change.
    #[test]
    fn pool_poison_leaves_a_staged_session_bit_identical() {
        let src = Workload::QCriterion.source();
        let fields = small_rt_fields([6, 5, 4]);
        let run = |poison: bool| {
            let mut engine = cpu_engine();
            let mut session = engine.session();
            session.context_mut().debug_set_poison(poison);
            let cycles: Vec<Vec<f32>> = (0..3)
                .map(|_| {
                    let report = session.derive(src, &fields, Strategy::Staged).unwrap();
                    report.field.unwrap().data
                })
                .collect();
            assert!(session.pool_hits() > 0);
            cycles
        };
        for (cycle, (plain, poisoned)) in run(false).iter().zip(&run(true)).enumerate() {
            assert_bits_eq(plain, poisoned, &format!("cycle {cycle}"));
        }
    }
}
