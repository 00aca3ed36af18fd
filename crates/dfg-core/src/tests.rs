//! Core engine tests: Table II event counts, cross-strategy numerical
//! equivalence, and agreement between measured memory high-water marks and
//! the analytical model.

use dfg_dataflow::{memreq_units, Strategy};
use dfg_expr::compile;
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

use crate::{Engine, EngineOptions, FieldSet, OptLevel, StreamOptions, Workload};

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
                run_streamed(
                    &spec,
                    &fields,
                    ctx,
                    None,
                    "t",
                    budget,
                    StreamOptions::default(),
                    None,
                )
                .map(|_| ())
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

/// Whole-field uploads adopt the host's arrays, so a real derive physically
/// copies its downloads and nothing else — while the modeled host-to-device
/// volume, which is what the paper counts, is what it always was. Slab
/// uploads are borrowed windows and are still copied; a model run copies
/// nothing at all.
#[test]
fn host_bytes_copied_is_the_download_except_when_streaming() {
    use dfg_ocl::EventKind::{DeviceToHost, HostToDevice};
    let fields = small_rt_fields([6, 5, 4]);
    let n = fields.ncells() as u64;
    let src = Workload::QCriterion.source();
    for strategy in Strategy::ALL {
        let profile = cpu_engine().derive(src, &fields, strategy).unwrap().profile;
        assert_eq!(
            profile.host_bytes_copied,
            profile.bytes(DeviceToHost),
            "{strategy}"
        );
        assert!(profile.bytes(HostToDevice) >= 6 * 4 * n + 12, "{strategy}");
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
        assert_eq!(profile.host_bytes_copied, 4 * n, "cycle {cycle}");
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
