//! Isolated layer probes: each public function of a layer that an op passes
//! through, called directly on the workload's own program and data and
//! timed from outside. Every call is wrapped in a `bench.layer` span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dfg_core::{Engine, FieldSet, Strategy};
use dfg_dataflow::{canonical_hash, optimize, NetworkSpec, NodeId, OptLevel, Schedule};
use dfg_kernels::{fuse_roots, BinKind, FusedKernel, Primitive};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{Context, DeviceKernel, DeviceProfile, ExecMode, KernelArgs, VerifyPolicy};
use dfg_trace::{span, Tracer};

use crate::stats::median;
use crate::workloads::Probe;

/// Per-layer values by metric name.
pub type Values = Vec<(String, f64)>;

/// Median seconds of `f` over at least `min_reps` calls and until `budget`
/// is spent, after one untimed warm-up call.
pub fn time<T>(min_reps: usize, budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (started.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

const SHORT: Duration = Duration::from_millis(20);
const LONG: Duration = Duration::from_millis(400);

/// The nodes a request for `outputs` keeps live.
fn roots_of(spec: &NetworkSpec, outputs: Option<&[&str]>) -> Vec<NodeId> {
    match outputs {
        None => vec![spec.result],
        Some(names) => names
            .iter()
            .filter_map(|want| {
                spec.iter()
                    .filter(|(_, node)| node.name.as_deref() == Some(*want))
                    .map(|(id, _)| id)
                    .last()
            })
            .collect(),
    }
}

fn scalar<'a>(fields: &'a FieldSet, name: &str) -> &'a [f32] {
    fields
        .get(name)
        .and_then(|f| f.data.as_deref())
        .unwrap_or_else(|| panic!("the RT field set has `{name}`"))
}

/// `mesh.fieldgen_ms`: what building the host's field set costs.
pub fn mesh(dims: [usize; 3], tracer: &Tracer, out: &mut Values) {
    let _s = span!(tracer, "bench.layer", layer = "mesh");
    let mesh = RectilinearMesh::unit_cube(dims);
    let workload = RtWorkload::paper_default();
    let t = time(3, LONG, || FieldSet::for_rt_mesh(&mesh, &workload));
    out.push(("mesh.fieldgen_ms".into(), t * 1e3));
}

/// `expr.*`, `dataflow.*`, `kernels.fuse_us`: the front end a cold op (and
/// every new expression a server sees) passes through.
pub fn front_end(p: &Probe, tracer: &Tracer, out: &mut Values) {
    let _s = span!(tracer, "bench.layer", layer = "front_end");
    let spec = dfg_expr::compile(p.source).expect("the workload's program compiles");
    let roots = roots_of(&spec, p.outputs);
    out.push((
        "expr.compile_us".into(),
        time(20, SHORT, || dfg_expr::compile(p.source)) * 1e6,
    ));
    out.push(("expr.nodes".into(), spec.len() as f64));
    // `Cse` is the level `dfg-serve` applies to every expression it
    // admits; one-shot engines default to `Off`, which is a clone.
    let optimized = optimize(&spec, &roots, OptLevel::Cse).expect("optimizes");
    out.push((
        "dataflow.optimize_us".into(),
        time(20, SHORT, || optimize(&spec, &roots, OptLevel::Cse)) * 1e6,
    ));
    out.push((
        "dataflow.schedule_us".into(),
        time(20, SHORT, || Schedule::for_roots(&spec, &roots)) * 1e6,
    ));
    out.push((
        "dataflow.hash_us".into(),
        time(20, SHORT, || canonical_hash(&optimized.spec)) * 1e6,
    ));
    out.push((
        "dataflow.filters".into(),
        optimized.stats.filters_before as f64,
    ));
    out.push((
        "kernels.fuse_us".into(),
        time(20, SHORT, || fuse_roots(&spec, &roots)) * 1e6,
    ));
}

/// `kernels.*`: the fused interpreter, an elementwise primitive and the
/// gradient stencil run directly on the workload's arrays, the staged
/// primitives summed, and the hand-written reference. `op_ms` is the
/// untraced primary op, `triad_gbs` the ceiling taken in this process.
pub fn kernels(p: &Probe, tracer: &Tracer, op_ms: f64, triad_gbs: f64, out: &mut Values) {
    let _s = span!(tracer, "bench.layer", layer = "kernels");
    let n = p.fields.ncells();
    let spec = dfg_expr::compile(p.source).expect("compiles");
    let roots = roots_of(&spec, p.outputs);
    let program = fuse_roots(&spec, &roots).expect("the workload's program fuses");
    let inputs: Vec<&[f32]> = program
        .inputs
        .iter()
        .map(|slot| scalar(p.fields, &slot.name))
        .collect();
    let big_inputs = program.inputs.iter().filter(|s| !s.small).count();
    let lanes_out = program.lanes_per_elem;
    let kernel = FusedKernel::new(program, "probe");
    let mut output = vec![0.0f32; n * lanes_out];
    let fused_s = {
        let _k = span!(
            tracer,
            "bench.layer",
            layer = "kernels",
            call = "FusedKernel::run"
        );
        time(5, LONG, || {
            kernel.run(KernelArgs {
                inputs: &inputs,
                output: &mut output,
                n,
            })
        })
    };
    // Computed minimum traffic: every distinct input array read once, every
    // output lane written once; cache misses are not in this number.
    let fused_gbs = (4 * n * (big_inputs + lanes_out)) as f64 / fused_s / 1e9;
    out.push(("kernels.fused_ms".into(), fused_s * 1e3));
    out.push(("kernels.fused_mcells_s".into(), n as f64 / fused_s / 1e6));
    out.push(("kernels.fused_gbs".into(), fused_gbs));
    out.push(("kernels.fused_frac_triad".into(), fused_gbs / triad_gbs));
    out.push(("kernels.fused_share".into(), fused_s * 1e3 / op_ms));
    drop(output);

    let (u, v) = (scalar(p.fields, "u"), scalar(p.fields, "v"));
    let mut scalar_out = vec![0.0f32; n];
    let ew_s = time(5, LONG / 4, || {
        Primitive::Bin(BinKind::Mul).run(KernelArgs {
            inputs: &[u, v],
            output: &mut scalar_out,
            n,
        })
    });
    out.push(("kernels.prim_ew_gbs".into(), (12 * n) as f64 / ew_s / 1e9));
    drop(scalar_out);
    let grad_inputs = ["dims", "x", "y", "z"].map(|name| scalar(p.fields, name));
    let mut vec4_out = vec![0.0f32; 4 * n];
    let grad_s = time(3, LONG / 2, || {
        Primitive::Grad3d.run(KernelArgs {
            inputs: &[
                u,
                grad_inputs[0],
                grad_inputs[1],
                grad_inputs[2],
                grad_inputs[3],
            ],
            output: &mut vec4_out,
            n,
        })
    });
    out.push(("kernels.grad3d_mcells_s".into(), n as f64 / grad_s / 1e6));
    drop(vec4_out);

    // The primitive library as staged drives it: one traced staged derive,
    // its `staged.kernel` spans summed.
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    engine.set_tracer(tracer.clone());
    let mut staged_sums = Vec::new();
    for _ in 0..3 {
        let mark = tracer.span_count();
        let ran = match p.outputs {
            None => engine
                .derive(p.source, p.fields, Strategy::Staged)
                .map(drop),
            Some(names) => engine
                .derive_many(p.source, names, p.fields, Strategy::Staged)
                .map(drop),
        };
        ran.expect("staged derive of the workload's program");
        let ns: u64 = tracer
            .snapshot_since(mark)
            .spans()
            .iter()
            .filter(|s| s.name == "staged.kernel")
            .map(|s| s.wall_ns())
            .sum();
        staged_sums.push(ns as f64 / 1e6);
    }
    out.push(("kernels.prim_sum_ms".into(), median(&staged_sums)));

    let mut plain = Engine::new(DeviceProfile::intel_x5660());
    let ref_s = time(3, LONG, || {
        plain
            .run_reference(p.reference, p.fields)
            .expect("reference kernel runs")
    });
    let fusion_s = time(3, LONG, || {
        plain
            .derive(p.reference.source(), p.fields, Strategy::Fusion)
            .expect("fusion derive of the reference's expression")
    });
    out.push(("kernels.ref_ms".into(), ref_s * 1e3));
    out.push(("kernels.fusion_x_ref".into(), fusion_s / ref_s));
}

/// `ocl.*` rates: transfers, allocation, launch and checksum of the
/// simulated device layer, on one 8 MiB buffer.
pub fn ocl(quick: bool, tracer: &Tracer, out: &mut Values) {
    let _s = span!(tracer, "bench.layer", layer = "ocl");
    let lanes = if quick { 1 << 16 } else { 1 << 21 };
    let bytes = (4 * lanes) as f64;
    let host = vec![1.5f32; lanes];
    let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
    let buf = ctx.create_buffer(lanes).expect("8 MiB fits the device");
    let h2d = time(5, LONG / 4, || {
        ctx.enqueue_write(buf, &host).expect("write")
    });
    let d2h = time(5, LONG / 4, || ctx.enqueue_read(buf).expect("read"));
    // Checksums are learned at the write, so the verified buffer lives in a
    // context of its own with verification on.
    let mut checked = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
    checked.set_verify(VerifyPolicy::Residents);
    let sealed = checked.create_buffer(lanes).expect("8 MiB fits the device");
    checked.enqueue_write(sealed, &host).expect("write");
    let sum = time(5, LONG / 4, || {
        checked.verify_buffer(sealed).expect("intact")
    });
    out.push(("ocl.h2d_gbs".into(), bytes / h2d / 1e9));
    out.push(("ocl.d2h_gbs".into(), bytes / d2h / 1e9));
    out.push(("ocl.checksum_gbs".into(), bytes / sum / 1e9));
    let alloc = time(100, SHORT, || {
        let b = ctx.create_buffer(lanes).expect("alloc");
        ctx.release(b).expect("release");
    });
    out.push(("ocl.alloc_us".into(), alloc * 1e6));
    let tiny = ctx.create_buffer(16).expect("alloc");
    let fill = Primitive::ConstFill(1.0);
    let launch = time(100, SHORT, || {
        ctx.launch(&fill, &[], tiny, 16).expect("launch")
    });
    out.push(("ocl.launch_us".into(), launch * 1e6));
}

/// `trace.span_ns`: what opening and closing one span costs.
pub fn trace(out: &mut Values) {
    let scratch = Tracer::new();
    const SPANS: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..SPANS {
        drop(span!(scratch, "probe"));
    }
    out.push((
        "trace.span_ns".into(),
        t.elapsed().as_nanos() as f64 / f64::from(SPANS),
    ));
}

/// `exec.forkjoin_us`: one empty `parallel_for` over as many indices as the
/// pool has threads. Run by the thread-scaling child.
pub fn forkjoin_us() -> f64 {
    let threads = dfg_exec::current_num_threads();
    time(200, SHORT, || {
        dfg_exec::parallel_for(threads, |i| {
            black_box(i);
        })
    }) * 1e6
}
