//! The write-coverage contract (DESIGN.md D11), kernel by kernel: a launch
//! over `n` cells writes every output lane below its `unwritten_from(n)`,
//! because a launch into fresh storage publishes those lanes as they are.
//!
//! Every kernel runs three ways. `run` writes into lanes that all hold
//! [`UNWRITTEN`]'s bits, so a lane it skips is found in any build; a launch
//! into fresh storage and one into recycled (poisoned) storage must read
//! back the same bits, with zeros past `unwritten_from`. A debug build's
//! context also checks every launch itself.

use dfg_dataflow::{example_networks, BinKind, UnKind};
use dfg_kernels::{fuse, fuse_roots, FusedKernel, Primitive, QCritRef, VelMagRef, VortMagRef};
use dfg_ocl::{
    first_unwritten, Context, DeviceKernel, DeviceProfile, ExecMode, KernelArgs, UNWRITTEN,
};

/// Grids of an odd cell count: one cell, fewer cells than one task of the
/// host pool, and more than one task of every kernel.
const GRIDS: [[usize; 3]; 3] = [[1, 1, 1], [13, 11, 7], [199, 19, 13]];

/// `len` lanes of values that are all different, some negative.
fn values(len: usize, seed: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32 + seed) * 0.37).sin() * (3.0 + seed))
        .collect()
}

/// The `dims` buffer and per-cell coordinates of a grid.
fn mesh(dims: [usize; 3]) -> [Vec<f32>; 4] {
    let n = dims.iter().product::<usize>();
    let axis = |a: usize, stride: usize| -> Vec<f32> {
        (0..n)
            .map(|c| ((c / stride) % dims[a]) as f32 * (1.0 + a as f32 * 0.5))
            .collect()
    };
    [
        dims.map(|d| d as f32).to_vec(),
        axis(0, 1),
        axis(1, dims[0]),
        axis(2, dims[0] * dims[1]),
    ]
}

/// Run `kernel` over `n` cells into `lanes` output lanes the three ways and
/// check what each wrote.
#[track_caller]
fn check(kernel: &dyn DeviceKernel, inputs: &[Vec<f32>], lanes: usize, n: usize) {
    let what = format!("{} over {n} cells", kernel.name());
    let from = kernel.unwritten_from(n).unwrap_or(lanes);
    let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mut marked = vec![f32::from_bits(UNWRITTEN); lanes];
    kernel.run(KernelArgs {
        inputs: &views,
        output: &mut marked,
        n,
    });
    assert_eq!(
        first_unwritten(&marked[..from]),
        None,
        "{what}: lane skipped"
    );

    let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
    ctx.set_pooling(true);
    ctx.debug_set_poison(true);
    let ids: Vec<_> = (inputs.iter())
        .map(|v| {
            let id = ctx.create_buffer(v.len()).unwrap();
            ctx.enqueue_write(id, v).unwrap();
            id
        })
        .collect();
    for recycled in [false, true] {
        let zeroed = ctx.report().host_bytes_zeroed;
        let out = ctx.create_buffer(lanes).unwrap();
        ctx.launch(kernel, &ids, out, n).unwrap();
        let got = ctx.peek(out).unwrap();
        let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
        assert!(
            got[..from].iter().zip(&marked[..from]).all(same),
            "{what}, recycled {recycled}: the launch differs from `run`"
        );
        assert!(got[from..].iter().all(|&l| l == 0.0), "{what}: tail");
        let tail = (lanes - from) as u64 * 4;
        assert_eq!(ctx.report().host_bytes_zeroed - zeroed, tail, "{what}");
        ctx.release(out).unwrap();
    }
    assert_eq!(ctx.pool_hits(), 1, "{what}: the second launch recycled");
}

#[test]
fn every_primitive_writes_every_lane_it_owns() {
    for dims in GRIDS {
        let n = dims.iter().product::<usize>();
        let s = |seed: f32| values(n, seed);
        let v4 = |seed: f32| values(4 * n, seed);
        let [dims_buf, x, y, z] = mesh(dims);
        let mut launches: Vec<(Primitive, Vec<Vec<f32>>, usize)> = vec![
            (Primitive::Select, vec![s(0.0), s(1.0), s(2.0)], n),
            (Primitive::ConstFill(0.25), vec![], n),
            (Primitive::Compose3, vec![s(0.0), s(1.0), s(2.0)], 4 * n),
            (Primitive::Grad3d, vec![s(3.0), dims_buf, x, y, z], 4 * n),
            (Primitive::Norm3, vec![v4(0.0)], n),
            (Primitive::Dot3, vec![v4(0.0), v4(1.0)], n),
            (Primitive::Cross3, vec![v4(0.0), v4(1.0)], 4 * n),
        ];
        launches.extend(BinKind::ALL.map(|k| (Primitive::Bin(k), vec![s(0.0), s(1.0)], n)));
        launches.extend(UnKind::ALL.map(|k| (Primitive::Un(k), vec![s(0.0)], n)));
        launches.extend((0..4).map(|k| (Primitive::Decompose(k), vec![v4(2.0)], n)));
        for (p, inputs, lanes) in launches {
            check(&p, &inputs, lanes, n);
        }
    }
}

#[test]
fn the_reference_kernels_write_every_lane() {
    for dims in GRIDS {
        let n = dims.iter().product::<usize>();
        let [dims_buf, x, y, z] = mesh(dims);
        let uvw = [values(n, 0.0), values(n, 1.0), values(n, 2.0)];
        check(&VelMagRef, &uvw, n, n);
        let mut gradient_inputs = uvw.to_vec();
        gradient_inputs.extend([dims_buf, x, y, z]);
        check(&VortMagRef, &gradient_inputs, n, n);
        check(&QCritRef, &gradient_inputs, n, n);
    }
}

/// The example networks, the paper's three expressions, and one program
/// with a scalar, a `Vec4` and a shared root (a `float4` store beside two
/// scalar planes).
#[test]
fn fused_kernels_write_every_plane_of_every_root() {
    let mut programs = [
        example_networks::fig2_example(),
        example_networks::velmag_example(),
        example_networks::gradmag_example(),
    ]
    .map(|spec| fuse(&spec).unwrap())
    .to_vec();
    use dfg_expr::workloads::{Q_CRITERION, VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE};
    for source in [VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE, Q_CRITERION] {
        programs.push(fuse(&dfg_expr::compile(source).unwrap()).unwrap());
    }
    let spec =
        dfg_expr::compile("m = u * v\ng = grad3d(u, dims, x, y, z)\ns = sqrt(m) + g[1]").unwrap();
    let root = |name: &str| {
        let named = spec
            .iter()
            .filter(|(_, node)| node.name.as_deref() == Some(name));
        named.map(|(id, _)| id).last().unwrap()
    };
    programs.push(fuse_roots(&spec, &[root("s"), root("g"), root("m")]).unwrap());
    for dims in GRIDS {
        let n = dims.iter().product::<usize>();
        let [dims_buf, x, y, z] = mesh(dims);
        for program in &programs {
            let inputs: Vec<Vec<f32>> = (program.inputs.iter().enumerate())
                .map(|(i, slot)| match slot.name.as_str() {
                    "dims" => dims_buf.clone(),
                    "x" => x.clone(),
                    "y" => y.clone(),
                    "z" => z.clone(),
                    _ => values(n, i as f32),
                })
                .collect();
            let lanes = n * program.lanes_per_elem;
            check(
                &FusedKernel::new(program.clone(), "coverage"),
                &inputs,
                lanes,
                n,
            );
        }
    }
}
