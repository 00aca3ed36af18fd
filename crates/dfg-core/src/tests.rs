//! Core engine tests: Table II event counts, cross-strategy numerical
//! equivalence, and agreement between measured memory high-water marks and
//! the analytical model. Every comparison of two configurations goes
//! through the conformance harness (`tests/harness.rs`).

use dfg_dataflow::{memreq_units, Strategy};
use dfg_expr::compile;
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

use crate::{Engine, EngineOptions, FieldSet, OptLevel, Request, Workload};

mod harness;
use harness::{
    real_and_model, same_bits, same_lanes, Config, Exec, Holder, Inputs, Program, EXECS,
};

fn small_rt_fields(dims: [usize; 3]) -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(dims);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn cpu_engine() -> Engine {
    Engine::new(DeviceProfile::intel_x5660())
}

fn model_engine(device: DeviceProfile) -> Engine {
    let options = EngineOptions {
        mode: ExecMode::Model,
        ..Default::default()
    };
    Engine::with_options(device, options)
}

#[test]
fn table2_counts_match_paper_exactly() {
    // The paper's Table II, all nine rows, asserted against measured device
    // events. These counts are size-independent; a small grid suffices.
    let inputs = Inputs::rt([6, 5, 4]);
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let program = Program::Source(workload.source());
            let outcome = harness::run(&Config::new(strategy), program, &inputs);
            harness::paper_table2(outcome.last("table2"), workload, strategy);
        }
    }
}

/// Roundtrip, staged and fusion compute the same field bit for bit; so does
/// the hand-written kernel wherever it spells the expression the same way
/// (Q-criterion is hand-minimized, so it is held to a tolerance).
fn executors_agree(dims: [usize; 3]) {
    let inputs = Inputs::rt(dims);
    for workload in Workload::ALL {
        let program = Program::Source(workload.source());
        let what = format!("{workload} on {dims:?}");
        let run = |config| harness::run(&config, program, &inputs);
        let fused = run(Config::new(Exec::Fusion)).last(&what).fields.clone();
        for exec in [Exec::Roundtrip, Exec::Staged] {
            same_bits(
                &fused,
                &run(Config::new(exec)).last(&what).fields,
                &format!("{what}: {exec:?}"),
            );
        }
        let reference = run(Config::reference()).last(&what).fields.clone();
        if workload == Workload::QCriterion {
            let (fused, reference) = (&fused[0].data, &reference[0].data);
            let scale = fused.iter().fold(1e-6f32, |m, x| m.max(x.abs()));
            for (i, (a, b)) in fused.iter().zip(reference).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4 * scale,
                    "{what} reference at {i}: {a} vs {b}"
                );
            }
        } else {
            same_bits(&fused, &reference, &format!("{what}: reference"));
        }
    }
}

/// Every executor, the reference kernel and a session compute the same bits
/// under the serial override as on the pool: parallel chunked kernels use
/// globally-indexed chunks, so the thread count never leaks into results —
/// nor into which staged launches compute in place or are views.
fn serial_matches_pooled(dims: [usize; 3]) {
    use dfg_trace::MetaValue::Bool;
    let inputs = Inputs::rt(dims);
    let session = Config {
        holder: Holder::Session(2),
        ..Config::new(Exec::Staged)
    };
    let configs = EXECS.map(Config::new).into_iter();
    let configs = configs.chain([Config::reference(), session]);
    let placements = |run: &harness::Run| -> Vec<_> {
        let trace = run.report.trace.as_ref().expect("traced");
        let kernels = trace.spans().iter().filter(|s| s.name == "staged.kernel");
        let flag = |s: &dfg_trace::SpanRecord, f| s.meta_get(f) == Some(&Bool(true));
        kernels
            .map(|s| (flag(s, "in_place"), flag(s, "view")))
            .collect()
    };
    for workload in Workload::ALL {
        let program = Program::Source(workload.source());
        for config in configs.clone() {
            let (exec, holder) = (config.exec, config.holder);
            let what = format!("{workload} on {dims:?} {exec:?} {holder:?}");
            let pooled = Config {
                traced: true,
                ..config
            };
            let serial = Config {
                serial: true,
                ..pooled.clone()
            };
            let pooled = harness::run(&pooled, program, &inputs);
            let serial = harness::run(&serial, program, &inputs);
            for (p, s) in pooled.ok(&what).into_iter().zip(serial.ok(&what)) {
                same_bits(&p.fields, &s.fields, &what);
                assert_eq!(placements(p), placements(s), "{what}: in place, views");
            }
        }
    }
}

#[test]
fn strategies_agree_with_each_other_and_reference() {
    executors_agree([8, 7, 6]);
}

#[test]
fn all_strategies_bit_identical_under_serial_override() {
    serial_matches_pooled([8, 7, 6]);
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
            let (_, report) = engine
                .run(&Request::network(&spec, &[spec.result], strategy), &fields)
                .unwrap();
            let predicted = memreq_units(&spec, strategy).unwrap().bytes(n);
            assert_eq!(
                report.high_water_bytes(),
                predicted,
                "{workload} under {strategy}: measured vs modeled"
            );
        }
    }
}

/// Model == Real on the entry points beside the executors' plain runs
/// (`write_once::model_records_real_events_one_for_one`): streamed over
/// several slabs on two queues, one-shot and over two session cycles, the
/// reference kernel, and two roots.
#[test]
fn model_mode_reproduces_real_mode_accounting() {
    let inputs = Inputs::rt([6, 5, 4]);
    let streamed = Exec::Streamed(Some(8 * 1024));
    for workload in Workload::ALL {
        let program = Program::Source(workload.source());
        for holder in [Holder::OneShot, Holder::Session(2)] {
            let config = Config {
                holder,
                ..Config::new(streamed)
            };
            let what = format!("{workload}/streamed {holder:?}");
            let real = real_and_model(&config, program, &inputs, &what);
            let events = &real.last(&what).report.profile.events;
            assert!(events.iter().any(|e| e.queue > 0), "{what}");
        }
        let what = format!("{workload}/reference");
        real_and_model(&Config::reference(), program, &inputs, &what);
    }
    let outputs = Program::Outputs(Workload::VorticityMagnitude.source(), &["w_mag", "w_x"]);
    for strategy in Strategy::ALL {
        let what = format!("two roots/{strategy}");
        let real = real_and_model(&Config::new(strategy), outputs, &inputs, &what);
        assert_eq!(real.last(&what).fields.len(), 2);
    }
}

#[test]
fn fusion_reports_generated_source() {
    let fields = small_rt_fields([4, 4, 4]);
    let mut engine = cpu_engine();
    let (_, report) = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
            &fields,
        )
        .unwrap();
    let src = report.generated_source.expect("fusion emits source");
    assert!(src.contains("__kernel void fused_q_crit"));
    assert!(src.contains("dfg_grad3d("));
    assert!(src.contains("0.5f"), "constant not source-inserted");
    // Roundtrip/staged do not generate source.
    let (_, r2) = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Staged),
            &fields,
        )
        .unwrap();
    assert!(r2.generated_source.is_none());
}

#[test]
fn gpu_oom_failure_mode() {
    // A grid big enough that staged Q-criterion exceeds the M2050's 3 GB in
    // model mode (no host RAM needed).
    let mut engine = model_engine(DeviceProfile::nvidia_m2050());
    let fields = FieldSet::virtual_rt([192, 192, 2048]);
    let err = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Staged),
            &fields,
        )
        .unwrap_err();
    assert!(err.is_out_of_memory(), "expected OOM, got {err}");
    // The same case fits under fusion (7 problem-sized arrays).
    let (_, ok) = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
            &fields,
        )
        .unwrap();
    assert!(ok.high_water_bytes() <= 2_500_000_000);
}

#[test]
fn missing_field_is_reported() {
    let mut engine = cpu_engine();
    let mut fields = FieldSet::new(8);
    fields.insert_scalar("u", vec![0.0; 8]).unwrap();
    let err = engine
        .run(&Request::source("r = u + q", Strategy::Staged), &fields)
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
            .run(
                &Request::source(crate::workloads::INTRO_CONDITIONAL, strategy),
                &fields,
            )
            .unwrap()
            .0
            .remove(0);
        let s = out.as_scalar().unwrap();
        // Interior cell with steep gradient: c*c > 0; flat region: -c*c < 0.
        let steep = mesh.index(4, 3, 3);
        let flat = mesh.index(1, 3, 3);
        assert!(s[steep] > 0.0, "{strategy}: steep cell must be positive");
        assert!(s[flat] < 0.0, "{strategy}: flat cell must be negative");
    }
}

/// The Taylor–Green velocity on an `n`×`n`×4 grid over one period, with
/// its coordinates and `dims`.
fn taylor_green_fields(n: usize) -> (RectilinearMesh, FieldSet) {
    use dfg_mesh::analytic::taylor_green::velocity;
    let tau = std::f32::consts::TAU;
    let mesh = RectilinearMesh::uniform([n, n, 4], [0.0; 3], [tau / n as f32; 3]);
    let mut fields = FieldSet::new(mesh.ncells());
    let (x, y, z) = mesh.coord_arrays();
    for (c, name) in ["u", "v", "w"].into_iter().enumerate() {
        let lanes = mesh.sample(|x, y, z| velocity(x, y, z)[c]);
        fields.insert_scalar(name, lanes).unwrap();
    }
    for (name, lanes) in [("x", x), ("y", y), ("z", z)] {
        fields.insert_scalar(name, lanes).unwrap();
    }
    fields.insert_small("dims", mesh.dims_buffer());
    (mesh, fields)
}

#[test]
fn vorticity_matches_taylor_green_exact_solution() {
    use dfg_mesh::analytic::taylor_green;
    let n = 24usize;
    let (mesh, fields) = taylor_green_fields(n);
    let mut engine = cpu_engine();
    let out = engine
        .run(
            &Request::source(Workload::VorticityMagnitude.source(), Strategy::Fusion),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
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
    let mut engine = model_engine(DeviceProfile::nvidia_m2050());
    let fields = FieldSet::virtual_rt([192, 192, 256]);
    for workload in Workload::ALL {
        let rt = engine
            .run(
                &Request::source(workload.source(), Strategy::Roundtrip),
                &fields,
            )
            .unwrap()
            .1
            .device_seconds();
        let st = engine
            .run(
                &Request::source(workload.source(), Strategy::Staged),
                &fields,
            )
            .unwrap()
            .1
            .device_seconds();
        let fu = engine
            .run(
                &Request::source(workload.source(), Strategy::Fusion),
                &fields,
            )
            .unwrap()
            .1
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
    let mut gpu = model_engine(DeviceProfile::nvidia_m2050());
    let mut cpu = model_engine(DeviceProfile::intel_x5660());
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let (_, g) = gpu
                .run(&Request::source(workload.source(), strategy), &fields)
                .unwrap();
            let (_, c) = cpu
                .run(&Request::source(workload.source(), strategy), &fields)
                .unwrap();
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
    let roots = [spec.result];
    let request = Request::network(&spec, &roots, Strategy::Staged);
    let (a_out, a) = engine.run(&request, &fields).unwrap();
    let (b_out, b) = engine.run(&request, &fields).unwrap();
    assert_eq!(a.table2_row(), b.table2_row());
    assert_eq!(a_out, b_out);
}

#[test]
fn streamed_fusion_bit_identical_to_fusion() {
    // §VI future work: streaming must not change results — z-slab halos
    // give the same stencil arithmetic as the single-pass kernel. The
    // budget forces several slabs: each slab holds 8 arrays/cell; 3
    // z-layers of 8x7 cells.
    let inputs = Inputs::rt([8, 7, 9]);
    let budget = 8 * 4 * (8 * 7 * 3) as u64;
    for workload in Workload::ALL {
        let program = Program::Source(workload.source());
        let fused = harness::run(&Config::new(Exec::Fusion), program, &inputs);
        let streamed = Config::new(Exec::Streamed(Some(budget)));
        let streamed = harness::run(&streamed, program, &inputs);
        let streamed = streamed.last("streamed");
        let peak = streamed.report.high_water_bytes();
        assert!(
            peak <= budget,
            "{workload}: streamed peak {peak} exceeds budget {budget}"
        );
        same_bits(
            &fused.last("fusion").fields,
            &streamed.fields,
            &format!("{workload}"),
        );
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
    let mut gpu = model_engine(DeviceProfile::nvidia_m2050());
    let src = Workload::QCriterion.source();
    assert!(gpu
        .run(&Request::source(src, Strategy::Fusion), &fields)
        .unwrap_err()
        .is_out_of_memory());
    let (_, streamed) = gpu
        .run(&Request::source(src, Exec::Streamed(None)), &fields)
        .unwrap();
    assert!(streamed.high_water_bytes() <= gpu.device().global_mem_bytes);
    // Streaming pays for its flexibility with extra transfers (the halo
    // layers) but stays within ~2x of what unconstrained fusion would cost.
    let mut cpu_like = model_engine(DeviceProfile::intel_x5660());
    let (_, unconstrained) = cpu_like
        .run(&Request::source(src, Strategy::Fusion), &fields)
        .unwrap();
    let gpu_over_cpu = streamed.profile.count(dfg_ocl::EventKind::KernelExec) as f64;
    assert!(gpu_over_cpu > 1.0, "streaming must use multiple slabs");
    assert!(unconstrained.device_seconds() > 0.0);
}

#[test]
fn streaming_rejects_impossible_budget() {
    let fields = small_rt_fields([8, 8, 8]);
    let mut engine = cpu_engine();
    let err = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Exec::Streamed(Some(64))),
            &fields,
        )
        .unwrap_err();
    assert!(err.is_out_of_memory());
}

#[test]
fn streaming_elementwise_chunks_without_dims() {
    let fields = small_rt_fields([6, 6, 6]);
    let mut engine = cpu_engine();
    let fused = engine
        .run(
            &Request::source(Workload::VelocityMagnitude.source(), Strategy::Fusion),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
    // Chunk the 216-cell array into pieces of at most 50 cells (4 arrays).
    let exec = Exec::Streamed(Some(4 * 4 * 50));
    let request = Request::source(Workload::VelocityMagnitude.source(), exec);
    let (out, streamed) = engine.run(&request, &fields).unwrap();
    let (w, _r, k) = streamed.table2_row();
    assert!(k >= 5, "expected >= 5 chunks, got {k} kernels");
    assert!(w >= 3 * k, "each chunk re-uploads its three inputs");
    assert_eq!(out[0].data, fused.data);
}

#[test]
fn curl_sugar_equals_fig3b_vorticity() {
    // `norm(curl(...))` must compute exactly what the hand-written Figure
    // 3B program computes, under every strategy.
    let fields = small_rt_fields([7, 6, 5]);
    let mut engine = cpu_engine();
    let reference = engine
        .run(
            &Request::source(Workload::VorticityMagnitude.source(), Strategy::Fusion),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
    for strategy in Strategy::ALL {
        let sugar = engine
            .run(
                &Request::source("w_mag = norm(curl(u, v, w, dims, x, y, z))", strategy),
                &fields,
            )
            .unwrap()
            .0
            .remove(0);
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
    let n = 20usize;
    let (mesh, fields) = taylor_green_fields(n);
    let mut engine = cpu_engine();
    let out = engine
        .run(
            &Request::source("d = divergence(u, v, w, dims, x, y, z)", Strategy::Fusion),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
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
        .run(
            &Request::source(
                "h = dot(vector(u, v, w), curl(u, v, w, dims, x, y, z))",
                Strategy::Fusion,
            ),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
    assert!(helicity.as_scalar().unwrap().iter().any(|&v| v != 0.0));
    let enstrophy = engine
        .run(
            &Request::source(
                "ens = 0.5 * pow(norm(curl(u, v, w, dims, x, y, z)), 2)",
                Strategy::Staged,
            ),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
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
        .run(
            &Request::source(
                "r = sin(t)*sin(t) + cos(t)*cos(t) + exp(log(t)) - t",
                Strategy::Fusion,
            ),
            &fields,
        )
        .unwrap()
        .0
        .remove(0);
    for (i, &v) in out.as_scalar().unwrap().iter().enumerate() {
        assert!((v - 1.0).abs() < 1e-5, "identity failed at {i}: {v}");
    }
}

#[test]
fn derive_many_shares_work_across_outputs() {
    // Vorticity magnitude AND the intermediate w_x, w_y in one pass.
    let fields = small_rt_fields([7, 6, 5]);
    let mut engine = cpu_engine();
    let names = ["w_mag", "w_x", "w_y"];
    for strategy in Strategy::ALL {
        let request = Request::outputs(Workload::VorticityMagnitude.source(), &names, strategy);
        let (outputs, report) = engine
            .run(&request, &fields)
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(outputs.len(), 3);
        // Cross-check each output against the single-output path.
        for (name, field) in names.iter().zip(&outputs) {
            let source = format!(
                "{}\nfinal_alias = {name}\n",
                Workload::VorticityMagnitude.source()
            );
            let request = Request::source(&source, strategy);
            let single = engine.run(&request, &fields).unwrap().0.remove(0);
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
        .run(
            &Request::outputs(
                Workload::VelocityMagnitude.source(),
                &["v_mag", "enstrophy"],
                Strategy::Fusion,
            ),
            &fields,
        )
        .unwrap_err();
    assert!(matches!(err, crate::EngineError::NoSuchOutput { ref name } if name == "enstrophy"));
}

#[test]
fn derive_many_single_output_equals_derive() {
    let inputs = Inputs::rt([5, 5, 5]);
    let source = Workload::QCriterion.source();
    let config = Config::new(Strategy::Fusion);
    let many = harness::run(&config, Program::Outputs(source, &["q_crit"]), &inputs);
    let single = harness::run(&config, Program::Source(source), &inputs);
    same_bits(
        &single.last("derive").fields,
        &many.last("derive_many").fields,
        "q_crit",
    );
}

#[test]
fn executors_surface_injected_device_failures_cleanly() {
    // Fault injection: fail the k-th allocation for a spread of k the
    // execution performs; the executor must return an error (never panic)
    // and the engine-level invariant — a fresh context per run — keeps later
    // runs clean. Exercised against all four strategy functions.
    use crate::strategies::{run_fusion, run_roundtrip, run_staged, run_streamed};
    use dfg_dataflow::Schedule;
    use dfg_ocl::{Context, FaultKind, FaultPlan};

    let fields = small_rt_fields([5, 4, 3]);
    let spec = compile(Workload::QCriterion.source()).unwrap();
    let sched = Schedule::new(&spec).unwrap();
    let roots = [spec.result];
    type Exec<'a> = Box<dyn Fn(&mut Context) -> Result<(), crate::EngineError> + 'a>;
    let executors: [(&str, Exec<'_>); 4] = [
        (
            "roundtrip",
            Box::new(|ctx| run_roundtrip(&spec, &sched, &fields, ctx, &roots, None).map(|_| ())),
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
        for k in [1u64, 2, 5, 8] {
            let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
            let plan = FaultPlan::with_seed(0);
            plan.fail_nth_from_now(FaultKind::Alloc, k, 1);
            ctx.set_fault_plan(plan);
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
            .run(&Request::source("band = and(t > -2, t < 2)\nouter = not(or(t >= -3, t <= 3))\nr = band + 2 * outer", strategy), &fields)
            .unwrap()
            .0
            .remove(0);
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
            .run(
                &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
                &fields,
            )
            .unwrap();
    }
    assert_eq!(engine.compile_count(), 1, "identical source compiles once");
    engine
        .run(
            &Request::source(Workload::VelocityMagnitude.source(), Strategy::Staged),
            &fields,
        )
        .unwrap();
    assert_eq!(engine.compile_count(), 2);
    // Errors are not cached as successes.
    assert!(engine
        .run(&Request::source("r = sqrt(", Strategy::Fusion), &fields)
        .is_err());
    assert!(engine
        .run(&Request::source("r = sqrt(", Strategy::Fusion), &fields)
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
    let request = Request::source(src, Strategy::Staged);
    let (a_out, a) = limited.run(&request, &fields).unwrap();
    let (b_out, b) = full.run(&request, &fields).unwrap();
    let (_, _, k_limited) = a.table2_row();
    let (_, _, k_full) = b.table2_row();
    assert_eq!(k_limited, 67, "paper count");
    assert!(
        k_full < k_limited,
        "full CSE must launch fewer kernels: {k_full} vs {k_limited}"
    );
    // Bit-identical derived field (f32 +/* are commutative).
    same_lanes(&a_out[0].data, &b_out[0].data, "full CSE");
    // Report the savings where a human will see them on failure.
    println!("Q-crit staged kernels: limited CSE {k_limited}, full CSE {k_full}");
}

/// [`executors_agree`] and [`serial_matches_pooled`] on grids whose cell
/// count is a multiple of neither the chunk width nor `nx` — 37×5×3 crosses
/// chunk and row boundaries inside one task, 37×31×17 also splits into
/// several tasks on the pool.
#[test]
fn executors_agree_bit_for_bit_on_ragged_grids_serial_and_pooled() {
    for dims in [[37, 5, 3], [37, 31, 17]] {
        executors_agree(dims);
        serial_matches_pooled(dims);
    }
}

/// The fused kernel writes one plane per root and the download is split by
/// plane: a three-root program with a `float4` root and a root that is a
/// bare input returns exactly the fields three single-root derives return.
#[test]
fn planar_multi_root_download_equals_single_root_derives() {
    let src = "g = grad3d(u, dims, x, y, z)\nm = sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])\nr = w";
    let inputs = Inputs::rt([37, 5, 3]);
    let config = Config::new(Strategy::Fusion);
    let names = ["m", "g", "r"];
    let many = harness::run(&config, Program::Outputs(src, &names), &inputs);
    let many = &many.last("three roots").fields;
    for (field, name) in many.iter().zip(names) {
        let single = harness::run(&config, Program::Outputs(src, &[name]), &inputs);
        let single = &single.last(name).fields;
        same_bits(single, std::slice::from_ref(field), &format!("root {name}"));
    }
    let ncells = inputs.real.ncells();
    assert_eq!(many[1].data.len(), 4 * ncells, "g keeps float4 cells");
    let w = inputs.real.get("w").unwrap().data.as_ref().unwrap();
    same_lanes(&many[2].data, w, "bare-input root");
}

/// A `dims` field that disagrees with the grid used to reach the stencil
/// (`idx % 0`, or indexing past the field) and panic on a pool thread. It
/// is a typed error on every execution path, decided before the device is
/// touched: no buffer stays allocated and no event is recorded.
#[test]
fn dims_disagreeing_with_the_grid_is_a_typed_error_before_any_device_work() {
    use dfg_trace::Tracer;
    let src = Workload::VorticityMagnitude.source();
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
        for exec in EXECS {
            let request = Request::source(src, exec);
            let tracer = Tracer::new();
            let mut engine = cpu_engine();
            engine.set_tracer(tracer.clone());
            is_dims_error(engine.run(&request, &fields).unwrap_err());
            let trace = tracer.snapshot_since(0);
            let device = trace.spans().iter().filter(|s| s.name.starts_with("ocl."));
            assert_eq!(
                device.count(),
                0,
                "{bad:?} {exec:?}: device events recorded"
            );

            let mut session = engine.session();
            is_dims_error(session.run(&request, &fields).unwrap_err());
            assert_eq!(session.context().in_use_bytes(), 0, "{bad:?} {exec:?}");
            assert!(
                session.context().report().events.is_empty(),
                "{bad:?} {exec:?}"
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
        let (_, report) = engine
            .run(
                &Request::source(workload.source(), Strategy::Staged),
                &fields,
            )
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
            let (out, _) = session
                .run(&Request::source(src, Strategy::Fusion), &fields)
                .unwrap();
            assert_eq!(out.len(), 1);
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

    /// One session cycle of the Q-criterion on `exec`.
    fn derive_on(
        session: &mut crate::Session<&mut Engine>,
        exec: Exec,
        fields: &FieldSet,
    ) -> Result<(Vec<crate::Field>, crate::ExecReport), crate::EngineError> {
        session.run(
            &Request::source(Workload::QCriterion.source(), exec),
            fields,
        )
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
        for path in EXECS {
            let name = path.name();
            let clean = derive_on(&mut cpu_engine().session(), path, &fields)
                .unwrap()
                .0
                .remove(0);
            // Fusion and streamed (one slab here) launch once per cycle.
            let nth = match path {
                Exec::Roundtrip | Exec::Staged => 3,
                Exec::Fusion | Exec::Streamed(_) => 1,
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
                let (again, report) = derive_on(&mut session, path, &fields).unwrap();
                assert!(report.recovery.is_none(), "{name}: clean run, no policy");
                same_lanes(
                    &clean.data,
                    &again[0].data,
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
        let path = Exec::Fusion;
        let clean = derive_on(&mut cpu_engine().session(), path, &fields)
            .unwrap()
            .0
            .remove(0);
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
        let (again, report) = derive_on(&mut session, path, &fields).unwrap();
        assert!(report.recovery.is_none());
        assert_eq!(session.stats().integrity_healed, 1, "healed at bind");
        same_lanes(&clean.data, &again[0].data, "after heal");
    }

    /// Mutating one field triggers exactly one re-upload next cycle.
    #[test]
    fn mutating_one_field_reuploads_exactly_that_field() {
        let mut fields = small_rt_fields([4, 4, 4]);
        let mut engine = cpu_engine();
        let mut session = engine.session();
        let src = Workload::VelocityMagnitude.source();
        session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
        let uploads_before = session.stats().uploads;

        fields.touch("v");
        let (_, report) = session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
        assert_eq!(session.stats().uploads - uploads_before, 1);
        // The profile confirms it: one h2d event in the whole cycle.
        assert_eq!(report.profile.count(EventKind::HostToDevice), 1);
    }

    /// `exec`'s one-shot against three cycles of one session, bit for bit;
    /// returns the session's counters and pool hits.
    fn three_cycles(exec: Exec, program: Program, inputs: &Inputs) -> (crate::SessionStats, u64) {
        let what = format!("{program:?} {exec:?}");
        let one_shot = harness::run(&Config::new(exec), program, inputs);
        let session = Config {
            holder: Holder::Session(3),
            ..Config::new(exec)
        };
        let session = harness::run(&session, program, inputs);
        for again in session.ok(&what) {
            same_bits(&one_shot.last(&what).fields, &again.fields, &what);
        }
        let stats = session.stats.clone().expect("a session");
        (stats, session.last(&what).pool_hits)
    }

    /// Session results are identical to one-shot results on every executor.
    #[test]
    fn session_results_match_one_shot_per_strategy() {
        let inputs = Inputs::rt([6, 5, 4]);
        for workload in Workload::ALL {
            for exec in EXECS {
                three_cycles(exec, Program::Source(workload.source()), &inputs);
            }
        }
    }

    /// Model == Real (`harness::same_events`, cycle by cycle, and the
    /// session counters) for a session that alternates fusion and staged
    /// over five cycles while `u` changes every cycle: the modeled protocol
    /// does not depend on whether data movement actually happens.
    #[test]
    fn model_and_real_sessions_agree_on_events_and_clock() {
        let run = |mode: ExecMode| {
            let dims = [6, 5, 4];
            let mut fields = match mode {
                ExecMode::Real => small_rt_fields(dims),
                ExecMode::Model => FieldSet::virtual_rt(dims),
            };
            let mut engine = Config {
                mode,
                ..Config::new(Exec::Fusion)
            }
            .engine();
            let mut session = engine.session();
            let src = Workload::VelocityMagnitude.source();
            let n = fields.ncells();
            let mut reports = Vec::new();
            for cycle in 0..5u32 {
                match (cycle, mode) {
                    (0, _) => {}
                    (_, ExecMode::Real) => {
                        fields.update_scalar("u", &vec![cycle as f32; n]).unwrap()
                    }
                    (_, ExecMode::Model) => {
                        fields.touch("u");
                    }
                }
                for strategy in [Strategy::Fusion, Strategy::Staged] {
                    let request = Request::source(src, strategy);
                    reports.push(session.run(&request, &fields).unwrap().1);
                }
            }
            (reports, session.end())
        };
        let (real, real_stats) = run(ExecMode::Real);
        let (model, model_stats) = run(ExecMode::Model);
        assert_eq!(real_stats, model_stats, "session counters diverge");
        assert_eq!(real.len(), model.len());
        for (i, (r, m)) in real.iter().zip(&model).enumerate() {
            harness::same_events(r, m, &format!("derive {i}"));
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
        session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
        assert_eq!(session.pool_hits(), 0, "first cycle allocates fresh");
        session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
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
        let (_, first) = session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
        let (_, second) = session
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
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
        let (_, a) = engine
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
        let (_, b) = engine
            .run(&Request::source(src, Strategy::Fusion), &fields)
            .unwrap();
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
        let program = Program::Source(Workload::QCriterion.source());
        let streamed = Exec::Streamed(Some(20 * 1024));
        let (stats, pool_hits) = three_cycles(streamed, program, &Inputs::rt([6, 5, 4]));
        assert_eq!((stats.codegen_compiles, stats.codegen_cached), (1, 2));
        assert!(pool_hits > 0, "slab buffers recycle via the pool");
    }

    /// derive_many through a session: amortized multi-output fusion.
    #[test]
    fn session_derive_many_amortizes() {
        let source = format!(
            "{}\nw_mag = norm(curl(u, v, w, dims, x, y, z))\n",
            Workload::QCriterion.source().trim_end()
        );
        let program = Program::Outputs(&source, &["w_mag", "q_crit"]);
        let (stats, _) = three_cycles(Exec::Fusion, program, &Inputs::rt([5, 5, 5]));
        assert_eq!(stats.codegen_compiles, 1);
        assert_eq!(
            stats.uploads, 7,
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
            let request = Request::source(src, Strategy::Fusion);
            let (got, _) = session.run(&request, &fields).unwrap();
            let (fresh, _) = cpu_engine().run(&request, &fields).unwrap();
            same_bits(&fresh, &got, &format!("grid {dims:?}"));
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
        session
            .run(&Request::source(src, Strategy::Fusion), &a)
            .unwrap();
        session
            .run(&Request::source(src, Strategy::Fusion), &b)
            .unwrap();
        assert_eq!(session.stats().uploads_skipped, 3, "an untouched clone");
        a.update_scalar("u", &vec![2.0; n]).unwrap();
        b.update_scalar("u", &vec![5.0; n]).unwrap();
        let request = Request::source(src, Strategy::Fusion);
        for fields in [&a, &b, &a] {
            let (got, _) = session.run(&request, fields).unwrap();
            let (fresh, _) = cpu_engine().run(&request, fields).unwrap();
            same_bits(&fresh, &got, "clone updated apart");
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
        let request = Request::source(src, Strategy::Staged);
        let first = session.run(&request, &fields).unwrap().0.remove(0);
        let first_bits: Vec<u32> = first.data.iter().map(|v| v.to_bits()).collect();
        let old_u = fields.get("u").unwrap().data.clone().unwrap();
        let old_bits: Vec<u32> = old_u.iter().map(|v| v.to_bits()).collect();

        fields.update_scalar("u", &vec![9.0; n]).unwrap();
        assert!(old_u
            .iter()
            .map(|v| v.to_bits())
            .eq(old_bits.iter().copied()));
        let second = session.run(&request, &fields).unwrap().0.remove(0);
        let fresh = cpu_engine().run(&request, &fields).unwrap().0.remove(0);
        same_lanes(&fresh.data, &second.data, "after update");
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
        let request = Request::source(src, Strategy::Fusion);
        let (clean, _) = cpu_engine().run(&request, &fields).unwrap();
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
        session.run(&request, &fields).unwrap();
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        let err = session.run(&request, &fields).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        assert_eq!(session.context().integrity_stats().violations, 1);
        assert_eq!(bits(&fields), before, "the flip stayed on the device side");
        let (healed, _) = session.run(&request, &fields).unwrap();
        assert_eq!(session.stats().integrity_healed, 1);
        same_bits(&clean, &healed, "after heal");
        assert_eq!(bits(&fields), before);
    }
}

/// A registry tenant is an owned session behind a quota and a leak guard:
/// its cycles equal a borrowed session's, bit for bit and event for event,
/// for every program and executor — failing alike where streamed is asked
/// for roots other than the natural result.
#[test]
fn registry_tenant_cycles_equal_session_cycles() {
    let inputs = Inputs::rt([6, 5, 4]);
    let vorticity = Workload::VorticityMagnitude.source();
    let spec = compile(vorticity).unwrap();
    let w_x = spec
        .iter()
        .filter(|(_, n)| n.name.as_deref() == Some("w_x"));
    let roots = [spec.result, w_x.last().expect("a w_x binding").0];
    let programs = [
        Program::Source(Workload::QCriterion.source()),
        Program::Outputs(vorticity, &["w_mag", "w_x"]),
        Program::Network(&spec, &roots),
    ];
    for program in programs {
        for exec in EXECS {
            let what = format!("{program:?} {exec:?}");
            let holder = |holder| Config {
                holder,
                traced: true,
                ..Config::new(exec)
            };
            let session = harness::run(&holder(Holder::Session(3)), program, &inputs);
            let tenant = harness::run(&holder(Holder::Tenant(3)), program, &inputs);
            harness::same_runs(&session, &tenant, &what);
        }
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
        let profile = cpu_engine()
            .run(&Request::source(src, strategy), &fields)
            .unwrap()
            .1
            .profile;
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
            .run(&Request::source(gradient, strategy), &fields)
            .unwrap()
            .1
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
            .run(&Request::source(src, Strategy::Fusion), &dirty)
            .unwrap()
            .1
            .profile;
        assert_eq!(profile.host_bytes_copied, 0, "cycle {cycle}");
        let uploaded = if cycle == 0 { 6 * 4 * n + 12 } else { 4 * n };
        assert_eq!(profile.bytes(HostToDevice), uploaded, "cycle {cycle}");
    }
    let streamed = cpu_engine()
        .run(
            &Request::source(src, Exec::Streamed(Some(8 * 4 * (6 * 5 * 3)))),
            &fields,
        )
        .unwrap()
        .1
        .profile;
    assert!(streamed.count(HostToDevice) > 7, "several slabs");
    assert_eq!(
        streamed.host_bytes_copied,
        streamed.bytes(HostToDevice) + streamed.bytes(DeviceToHost)
    );
    let mut model = model_engine(DeviceProfile::intel_x5660());
    let modeled = model
        .run(
            &Request::source(src, Strategy::Fusion),
            &FieldSet::virtual_rt([6, 5, 4]),
        )
        .unwrap()
        .1
        .profile;
    assert_eq!(modeled.host_bytes_copied, 0);
    assert_eq!(modeled.bytes(HostToDevice), 6 * 4 * n + 12);
}

/// The host-copies table (CI prints it with `--nocapture`): per paper
/// expression, path and run, the bytes downloaded beside the bytes the host
/// copied, the bytes whose storage was handed over (the `handed_over` lanes
/// of the `*.download` spans), the bytes zero-filled and the bytes hashed. A
/// one-shot (the reference kernel's too) and a session cycle hand over
/// every download; streamed copies its slab windows both ways. A session
/// row is its second cycle, at each verification level: the inputs are
/// adopted arrays, not hashed while they are the host's, so a `vel_mag`
/// fusion cycle hashes nothing under `residents`, and under `full` only its
/// result, twice — learned at the launch and checked at the download.
#[test]
fn host_copies_table() {
    use dfg_ocl::EventKind::DeviceToHost;
    use dfg_ocl::VerifyPolicy;
    let inputs = Inputs::rt([6, 5, 4]);
    let n = inputs.real.ncells() as u64;
    let runs = [
        ("one-shot", None, VerifyPolicy::Off),
        ("session", Some(2), VerifyPolicy::Off),
        ("session `residents`", Some(2), VerifyPolicy::Residents),
        ("session `full`", Some(2), VerifyPolicy::Full),
    ];
    println!("| expression | path | run | downloaded B | copied B | handed over B | zeroed B | hashed B |");
    println!("|---|---|---|---|---|---|---|---|");
    for (name, workload) in [
        ("vel_mag", Workload::VelocityMagnitude),
        ("q_crit", Workload::QCriterion),
    ] {
        // The reference kernel runs one-shot only.
        let paths = EXECS.map(|exec| (exec.name(), Config::new(exec), &runs[..]));
        let reference = ("reference", Config::reference(), &runs[..1]);
        for (path, base, runs) in paths.into_iter().chain([reference]) {
            for &(run, cycles, verify) in runs {
                let what = format!("{name} {path} {run}");
                let config = Config {
                    holder: cycles.map_or(base.holder, Holder::Session),
                    verify,
                    traced: true,
                    ..base.clone()
                };
                let outcome = harness::run(&config, Program::Source(workload.source()), &inputs);
                let last = outcome.last(&what);
                // Streamed copies its slab windows both ways; every other
                // path hands over every download.
                let handed_over =
                    harness::downloads_handed_over_or_copied(last, config.exec, &what);
                let profile = &last.report.profile;
                let down = profile.bytes(DeviceToHost);
                let (copied, zeroed) = (profile.host_bytes_copied, profile.host_bytes_zeroed);
                let hashed = profile.host_bytes_hashed;
                println!(
                    "| `{name}` | {path} | {run} | {down} | {copied} | {handed_over} | {zeroed} | {hashed} |"
                );
                if path != "streamed" {
                    assert_eq!(handed_over, down, "{what}");
                }
                let want_hashed = match (name, path, verify) {
                    (_, _, VerifyPolicy::Off) | ("vel_mag", "fusion", VerifyPolicy::Residents) => 0,
                    ("vel_mag", "fusion", VerifyPolicy::Full) => 2 * down,
                    _ => hashed,
                };
                assert_eq!(hashed, want_hashed, "{what}");
                // Launches write fresh storage once: the context clears only
                // a `Vec4` value's fourth plane, which no kernel writes —
                // none in `vel_mag`, and `q_crit`'s three gradients.
                match (name, path) {
                    ("vel_mag", _) => assert_eq!(zeroed, 0, "{what}"),
                    ("q_crit", "staged") => assert_eq!(zeroed, 3 * n * 4, "{what}"),
                    _ => {}
                }
            }
        }
    }
}

/// `src` staged under `verify=full` with a seeded `mem_flip` at launch
/// `nth`: without recovery the flip is detected — the buffer the violation
/// names is returned — and with recovery the run heals to the clean run's
/// bits, counting one violation.
fn flip_is_detected_and_healed(src: &str, inputs: &Inputs, nth: u64, seed: u64) -> usize {
    use crate::{EngineError, RecoveryPolicy};
    use dfg_ocl::{FaultKind, FaultPlan, OclError, VerifyPolicy};
    let what = format!("`{src}` launch {nth}, seed {seed}");
    let program = Program::Source(src);
    let clean = harness::run(&Config::new(Exec::Staged), program, inputs);
    let run = |recovery| {
        let plan = FaultPlan::with_seed(seed);
        plan.fail_nth_from_now(FaultKind::MemFlip, nth, 1);
        let config = Config {
            verify: VerifyPolicy::Full,
            recovery,
            faults: Some(plan),
            ..Config::new(Exec::Staged)
        };
        harness::run(&config, program, inputs)
            .runs
            .pop()
            .expect("one run")
    };
    let healed = run(RecoveryPolicy::resilient()).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(healed.report.integrity.violations, 1, "{what}");
    same_bits(&clean.last(&what).fields, &healed.fields, &what);
    match run(RecoveryPolicy::disabled()) {
        Err(EngineError::Ocl(OclError::IntegrityViolation { buffer, .. })) => buffer,
        other => panic!("{what}: expected a detected flip, got {other:?}"),
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

    /// Every paper expression × executor, one-shot and over two session
    /// cycles (the second recycles the first's storage): Model == Real
    /// (`harness::model_matches_real`: the same events, both clock ends and
    /// queue, the same high-water mark, and a Model run zero-fills nothing).
    #[test]
    fn model_records_real_events_one_for_one() {
        let inputs = Inputs::rt([6, 5, 4]);
        for workload in Workload::ALL {
            let program = Program::Source(workload.source());
            for exec in EXECS {
                for holder in [Holder::OneShot, Holder::Session(2)] {
                    let config = Config {
                        holder,
                        ..Config::new(exec)
                    };
                    let what = format!("{workload} {exec:?} {holder:?}");
                    real_and_model(&config, program, &inputs, &what);
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
        let inputs = Inputs::rt([5, 4, 3]);
        let clean = harness::run(&Config::new(Exec::Staged), Program::Source(src), &inputs);
        assert_eq!(clean.last("clean").report.table2_row().2, 3);
        let victims: std::collections::BTreeSet<_> = (0..16)
            .map(|seed| flip_is_detected_and_healed(src, &inputs, 3, seed))
            .collect();
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
    use crate::{EngineError, RecoveryPolicy};
    use dfg_dataflow::{BinKind, FilterOp, NetworkBuilder, NetworkSpec, NodeId, Strategy, UnKind};
    use dfg_ocl::{FaultKind, FaultPlan, OclError, VerifyPolicy};
    use dfg_trace::MetaValue;
    use harness::{downloads_handed_over_or_copied, random_axes, RANDOM_CASES};
    use proptest::prelude::*;
    use proptest::Strategy as _;

    /// Roundtrip (which never computes in place or shares a plane) against
    /// roundtrip, fusion and staged one-shots and a staged session of
    /// `axes.holder` cycles, each in Real and Model mode, under `axes`'
    /// threads and verification (see [`harness::agrees_with_roundtrip`]; a
    /// Model context has no storage to donate or share, so equal pool hits
    /// show the Real run donated none of the pool's). Roundtrip and fusion
    /// one-shots copy nothing, and a staged session, pooled, hands over what
    /// the one-shot does. Returns the staged one-shot's launches in place
    /// and views.
    fn check(
        spec: &NetworkSpec,
        roots: &[NodeId],
        inputs: &Inputs,
        axes: &Config,
    ) -> (usize, usize) {
        let one_shot = |exec| Config {
            exec,
            holder: Holder::OneShot,
            ..axes.clone()
        };
        let configs = [
            one_shot(Exec::Roundtrip),
            one_shot(Exec::Fusion),
            one_shot(Exec::Staged),
            Config {
                exec: Exec::Staged,
                ..axes.clone()
            },
        ];
        let program = Program::Network(spec, roots);
        let outcomes = harness::agrees_with_roundtrip(&configs, program, inputs);
        let [roundtrip, fusion, staged, session] = &outcomes[..] else {
            unreachable!("one outcome per config")
        };
        for (outcome, exec) in [(roundtrip, Exec::Roundtrip), (fusion, Exec::Fusion)] {
            let copied = outcome.last("one-shot").report.profile.host_bytes_copied;
            assert_eq!(copied, 0, "{exec:?}");
        }
        let staged = staged.last("staged");
        let handed_over = downloads_handed_over_or_copied(staged, Exec::Staged, "one-shot");
        for (cycle, run) in session.ok("session").iter().enumerate() {
            let what = format!("session cycle {cycle}");
            assert_eq!(
                downloads_handed_over_or_copied(run, Exec::Staged, &what),
                handed_over,
                "{what}"
            );
        }
        let trace = staged.report.trace.as_ref().expect("traced");
        let count = |flag: &str| {
            let set = Some(&MetaValue::Bool(true));
            (trace.spans().iter())
                .filter(|s| s.name == "staged.kernel" && s.meta_get(flag) == set)
                .count()
        };
        (count("in_place"), count("view"))
    }

    /// The [`check`] axes of a fixed network: a session of three cycles,
    /// pooled and unverified.
    fn three_cycles() -> Config {
        Config {
            holder: Holder::Session(3),
            ..Config::new(Exec::Staged)
        }
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
    fn inputs(n: usize, picks: &[usize]) -> Inputs {
        let (mut real, mut model) = (FieldSet::new(n), FieldSet::new(n));
        for (t, name) in ["a", "b", "c"].into_iter().enumerate() {
            let stride = 2 * picks[t] + 1;
            let lanes = (0..n).map(|i| PALETTE[(i * stride + picks[t + 1]) % 16]);
            real.insert_scalar(name, lanes.collect()).unwrap();
            model.insert_virtual_scalar(name);
        }
        Inputs { real, model }
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
        let inputs = inputs(4099, &[3, 1, 4, 1]);
        for roots in [vec![root], vec![q, root, x], vec![d, ss, root, y]] {
            assert!(
                check(&spec, &roots, &inputs, &three_cycles()).0 >= 4,
                "{roots:?}"
            );
        }
    }

    /// A random lowered network, its roots, and the fields it reads: the
    /// [`inputs`] of `n` cells or, with a grid, its [`mesh_inputs`].
    #[derive(Debug, Clone)]
    struct Random(
        NetworkSpec,
        Vec<NodeId>,
        usize,
        Option<[usize; 3]>,
        Vec<usize>,
    );

    impl Random {
        /// This network under `axes` (see [`check`]).
        fn check(&self, axes: &Config) -> (usize, usize) {
            let Random(spec, roots, n, dims, picks) = self;
            let inputs = match dims {
                None => inputs(*n, picks),
                Some(dims) => mesh_inputs(*dims, picks),
            };
            check(spec, roots, &inputs, axes)
        }
    }

    /// Random element-wise DAGs over every `BinKind` and `UnKind`, with
    /// shared subexpressions, `x op x`, several roots (some read later,
    /// some bare inputs) and a constant, over signed zeros, infinities, NaN
    /// and subnormals.
    fn elementwise() -> impl proptest::Strategy<Value = Random> {
        (
            prop::collection::vec((0usize..25, 0usize..1000, 0usize..1000, 0u8..4), 1..14),
            prop::collection::vec(0usize..1000, 1..4),
            prop::collection::vec(0usize..16, 5..6),
            1usize..3000,
        )
            .prop_map(|(nodes, roots, picks, n)| {
                let mut b = NetworkBuilder::new();
                let mut values = vec![b.input("a"), b.input("b"), b.input("c")];
                values.push(b.constant(PALETTE[picks[4]]));
                for (op, i, j, pair) in nodes {
                    // One node in four reads one value twice (`t*t`, `t-t`).
                    let x = values[i % values.len()];
                    let y = if pair == 0 {
                        x
                    } else {
                        values[j % values.len()]
                    };
                    values.push(match BinKind::ALL.get(op) {
                        Some(&kind) => b.binary(kind, x, y),
                        None => b.unary(UnKind::ALL[op - BinKind::ALL.len()], x),
                    });
                }
                let roots: Vec<NodeId> = roots.iter().map(|r| values[r % values.len()]).collect();
                Random(b.finish(roots[0]), roots, n, None, picks)
            })
    }

    /// Random DAGs over vector values: gradients of smooth and of
    /// special-valued fields, `vector`, `cross`, `dot`, `norm` and a
    /// `decompose` of every lane (the zero fourth too), beside element-wise
    /// steps, with shared subexpressions and scalar and `Vec4` roots, on
    /// ragged grids (one of them over a minimum task).
    fn vector() -> impl proptest::Strategy<Value = Random> {
        (
            prop::collection::vec((0usize..9, 0usize..1000, 0usize..1000, 0usize..1000), 2..20),
            prop::collection::vec(0usize..1000, 0..3),
            prop::collection::vec(0usize..16, 5..6),
            0usize..3,
        )
            .prop_map(|(nodes, roots, picks, grid)| {
                let mut b = NetworkBuilder::new();
                let dims = b.small_input("dims");
                let [x, y, z] = ["x", "y", "z"].map(|axis| b.input(axis));
                let mut scalars = ["u", "v", "w", "a", "b", "c"]
                    .map(|name| b.input(name))
                    .to_vec();
                let mut vectors = vec![b.grad3d(scalars[0], dims, x, y, z)];
                // An even draw takes one of the three newest values (a chain),
                // an odd one any value (a shared subexpression).
                let pick = |values: &[NodeId], t: usize| {
                    let len = values.len();
                    values[if t.is_multiple_of(2) {
                        len - 1 - t / 2 % len.min(3)
                    } else {
                        t / 2 % len
                    }]
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
                        _ => (
                            &mut scalars,
                            b.binary(BinKind::ALL[k % BinKind::ALL.len()], si, sj),
                        ),
                    };
                    list.push(value);
                    last = value;
                }
                let values: Vec<NodeId> = scalars.iter().chain(&vectors).copied().collect();
                let roots: Vec<NodeId> = std::iter::once(last)
                    .chain(roots.iter().map(|r| values[r % values.len()]))
                    .collect();
                let spec = b.finish(last);
                let dims = [[37, 5, 3], [4, 1, 6], [41, 23, 19]][grid];
                Random(spec, roots, 0, Some(dims), picks)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(RANDOM_CASES))]

        /// A random element-wise DAG (see [`Random::check`]).
        #[test]
        fn random_elementwise_dags_in_place_match_roundtrip(
            (random, axes) in (elementwise(), random_axes())
        ) {
            random.check(&axes);
        }

        /// A random vector DAG on a ragged grid, pooled and serially, which
        /// compute the same launches in place and as views (see
        /// [`Random::check`]).
        #[test]
        fn random_vector_dags_match_across_strategies(
            (random, axes) in (vector(), random_axes())
        ) {
            let on = |serial| Config { serial, ..axes.clone() };
            let pooled = random.check(&on(false));
            let serial = random.check(&on(true));
            prop_assert_eq!(pooled, serial);
        }
    }

    /// [`inputs`] beside the fields of a `dims` grid: `x`, `y`, `z`, `dims`
    /// and the smooth velocity `u`, `v`, `w`.
    fn mesh_inputs(dims: [usize; 3], picks: &[usize]) -> Inputs {
        let Inputs {
            mut real,
            mut model,
        } = Inputs::rt(dims);
        let palette = inputs(real.ncells(), picks).real;
        for name in ["a", "b", "c"] {
            let lanes = palette.get(name).and_then(|f| f.data.as_deref()).unwrap();
            real.insert_scalar(name, lanes.to_vec()).unwrap();
            model.insert_virtual_scalar(name);
        }
        Inputs { real, model }
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
        let request = Request::source(src, Strategy::Staged);
        let (first, _) = session.run(&request, &fields).unwrap();
        let residents: Vec<_> = session.state.resident.values().map(|r| r.buf).collect();
        assert_eq!(residents.len(), 2);
        for &buf in &residents {
            session.context_mut().debug_flip_bit(buf, 0, 0);
            session.context_mut().debug_flip_bit(buf, 0, 0);
        }
        let skipped = session.stats().uploads_skipped;
        for cycle in 0..3 {
            let (again, _) = session.run(&request, &fields).unwrap();
            same_bits(&first, &again, &format!("cycle {cycle}"));
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
        let inputs = Inputs::rt([5, 4, 3]);
        let victims: std::collections::BTreeSet<_> = (0..32)
            .map(|seed| flip_is_detected_and_healed("r = u*u + u", &inputs, 2, seed))
            .collect();
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
        let inputs = Inputs::rt([7, 5, 3]);
        let clean = harness::run(&Config::new(Exec::Staged), Program::Source(src), &inputs);
        assert_eq!(clean.last("clean").report.table2_row().2, 7);
        for (nth, seed) in (1..=7).flat_map(|nth| (0..3).map(move |seed| (nth, seed))) {
            flip_is_detected_and_healed(src, &inputs, nth, seed);
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
        let inputs = inputs(n, &[3, 1, 4, 1]);
        let roots = [r, t, r, x, t, x];
        check(&spec, &roots, &inputs, &three_cycles());
        let config = Config {
            traced: true,
            ..Config::new(Exec::Staged)
        };
        let outcome = harness::run(&config, Program::Network(&spec, &roots), &inputs);
        let run = outcome.last("staged");
        let trace = run.report.trace.as_ref().expect("traced");
        let download = (trace.spans().iter())
            .find(|s| s.name == "staged.download")
            .and_then(|s| s.meta_u64("handed_over"));
        assert_eq!(download, Some(2 * n as u64));
        assert_eq!(run.report.profile.host_bytes_copied, 4 * 4 * n as u64);
        let a = inputs
            .real
            .get("a")
            .and_then(|f| f.data.as_deref())
            .unwrap();
        for field in [&run.fields[3], &run.fields[5]] {
            same_lanes(&field.data, a, "bare-input root");
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
        let inputs = inputs(301, &[5, 2, 7, 3]);
        let run = |seed: Option<u64>, verify: VerifyPolicy, recovery: RecoveryPolicy| {
            let faults = seed.map(|seed| {
                let plan = FaultPlan::with_seed(seed);
                plan.fail_nth_from_now(FaultKind::MemFlip, 2, 1);
                plan
            });
            let config = Config {
                verify,
                recovery,
                faults,
                ..Config::new(Exec::Staged)
            };
            let program = Program::Network(&spec, &[t, r]);
            let mut outcome = harness::run(&config, program, &inputs);
            let run = outcome.runs.pop().expect("one run");
            run.map(|run| (run.fields, run.report.integrity.violations))
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
            same_bits(&clean, &healed, &format!("seed {seed}"));
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
                        .run(&Request::source(workload.source(), strategy), &fields)
                        .unwrap();
                }
                session.pool_hits()
            })
        });
        assert_eq!(hits, [[30, 15, 2], [83, 46, 2], [491, 182, 2]]);
    }

    /// Poisoned releases (`Context::debug_set_poison`) include the storage
    /// a donor gets in exchange, and a view parks without storage: a staged
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
                    let request = Request::source(src, Strategy::Staged);
                    session.run(&request, &fields).unwrap().0.remove(0).data
                })
                .collect();
            assert!(session.pool_hits() > 0);
            cycles
        };
        for (cycle, (plain, poisoned)) in run(false).iter().zip(&run(true)).enumerate() {
            same_lanes(plain, poisoned, &format!("cycle {cycle}"));
        }
    }
}
