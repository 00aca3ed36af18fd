//! The shared primitive kernel library (§III-B.3).
//!
//! *"We implemented a set of basic primitives that act as flexible building
//! blocks … These building blocks are small OpenCL source functions that are
//! written once and shared by all execution strategies. Each function
//! contains minimal metadata to describe global memory requirements and the
//! return type."*
//!
//! [`Primitive`] is the Rust analogue: one standalone device kernel per
//! filter operation, executing in parallel (rayon) with a cost model for the
//! virtual clock, plus the OpenCL-style source snippet each building block
//! corresponds to (used verbatim by the fusion code generator's display
//! output). What a scalar kind *is* — arithmetic, name, flops, source text —
//! is `dfg-dataflow`'s operation table ([`BinKind`], [`UnKind`]); this
//! module adds what only a standalone kernel has: the launch loop and the
//! bytes it moves.

use dfg_dataflow::{select, BinKind, FilterOp, UnKind};
use dfg_ocl::{DeviceKernel, KernelArgs, KernelCost};
use rayon::prelude::*;

use crate::fused::chunk_width;
use crate::grad::{gradient_span, lanes3, Dims3};

/// A standalone device kernel for one dataflow primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Primitive {
    /// Elementwise binary op: inputs `[a, b]`, scalar out.
    Bin(BinKind),
    /// Elementwise unary op: inputs `[a]`, scalar out.
    Un(UnKind),
    /// `select(cond, a, b)`: inputs `[cond, a, b]`, scalar out.
    Select,
    /// Extract vec4 component: inputs `[v]` (4n lanes), scalar out.
    Decompose(u8),
    /// Fill the output with a constant (staged's constant materialization).
    ConstFill(f32),
    /// Pack three scalars into a vec4: inputs `[a, b, c]`, vec4 out.
    Compose3,
    /// Gradient: inputs `[field, dims, x, y, z]`, vec4 out.
    Grad3d,
    /// Norm of first three lanes: inputs `[v]` (vec4), scalar out.
    Norm3,
    /// Dot of first three lanes: inputs `[a, b]` (vec4), scalar out.
    Dot3,
    /// Cross of first three lanes: inputs `[a, b]` (vec4), vec4 out.
    Cross3,
}

impl Primitive {
    /// Map a dataflow filter op to its primitive kernel. Sources map to
    /// `ConstFill` (constants) or `None` (inputs are uploads, not kernels).
    pub fn from_filter_op(op: &FilterOp) -> Option<Primitive> {
        Some(match *op {
            FilterOp::Input { .. } => return None,
            FilterOp::Const(v) => Primitive::ConstFill(v),
            FilterOp::Bin(k) => Primitive::Bin(k),
            FilterOp::Un(k) => Primitive::Un(k),
            FilterOp::Select => Primitive::Select,
            FilterOp::Compose3 => Primitive::Compose3,
            FilterOp::Decompose(c) => Primitive::Decompose(c),
            FilterOp::Grad3d => Primitive::Grad3d,
            FilterOp::Norm3 => Primitive::Norm3,
            FilterOp::Dot3 => Primitive::Dot3,
            FilterOp::Cross3 => Primitive::Cross3,
        })
    }

    /// The dataflow operation this kernel runs (the inverse of
    /// [`Primitive::from_filter_op`]): the operation table is where its
    /// label and flops are defined.
    fn filter_op(&self) -> FilterOp {
        match *self {
            Primitive::Bin(k) => k.into(),
            Primitive::Un(k) => k.into(),
            Primitive::Select => FilterOp::Select,
            Primitive::Decompose(c) => FilterOp::Decompose(c),
            Primitive::ConstFill(v) => FilterOp::Const(v),
            Primitive::Compose3 => FilterOp::Compose3,
            Primitive::Grad3d => FilterOp::Grad3d,
            Primitive::Norm3 => FilterOp::Norm3,
            Primitive::Dot3 => FilterOp::Dot3,
            Primitive::Cross3 => FilterOp::Cross3,
        }
    }

    /// The OpenCL building-block source this primitive corresponds to.
    /// Written once; the fusion generator inlines calls to these functions.
    pub fn opencl_source(&self) -> String {
        match self {
            Primitive::Bin(k) => format!(
                "float dfg_{name}(float a, float b) {{ return {expr}; }}",
                name = k.name(),
                expr = k.source_expr("a", "b"),
            ),
            Primitive::Un(k) => format!(
                "float dfg_{name}(float a) {{ return {expr}; }}",
                name = k.name(),
                expr = k.source_expr("a"),
            ),
            Primitive::Select => {
                "float dfg_select(float c, float a, float b) { return (c != 0.0f) ? a : b; }".into()
            }
            Primitive::Compose3 => {
                "float4 dfg_vector(float a, float b, float c) { return (float4)(a, b, c, 0.0f); }"
                    .into()
            }
            Primitive::Decompose(c) => {
                format!("float dfg_decompose_s{c}(float4 v) {{ return v.s{c}; }}")
            }
            Primitive::ConstFill(v) => {
                format!("float dfg_const() {{ return {v:?}f; }}")
            }
            Primitive::Grad3d => GRAD3D_OPENCL_SOURCE.into(),
            Primitive::Norm3 => {
                "float dfg_norm(float4 v) { return sqrt(v.s0*v.s0 + v.s1*v.s1 + v.s2*v.s2); }"
                    .into()
            }
            Primitive::Dot3 => {
                "float dfg_dot(float4 a, float4 b) { return a.s0*b.s0 + a.s1*b.s1 + a.s2*b.s2; }"
                    .into()
            }
            Primitive::Cross3 => "float4 dfg_cross(float4 a, float4 b) {\n    \
                 return (float4)(a.s1*b.s2 - a.s2*b.s1,\n                    \
                 a.s2*b.s0 - a.s0*b.s2,\n                    \
                 a.s0*b.s1 - a.s1*b.s0, 0.0f);\n}"
                .into(),
        }
    }
}

/// The gradient building block's OpenCL source (the paper's ">50 lines"
/// multi-line primitive), kept for source-level fidelity of the generator.
pub const GRAD3D_OPENCL_SOURCE: &str = r#"float4 dfg_grad3d(__global const float *f,
                  __global const int   *dims,
                  __global const float *x,
                  __global const float *y,
                  __global const float *z,
                  int idx)
{
    int nx = dims[0]; int ny = dims[1]; int nz = dims[2];
    int i = idx % nx;
    int j = (idx / nx) % ny;
    int k = idx / (nx * ny);
    float4 g = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
    /* d/dx */
    if (nx > 1) {
        int lo = (i == 0)      ? idx : idx - 1;
        int hi = (i == nx - 1) ? idx : idx + 1;
        float dx = x[hi] - x[lo];
        g.s0 = (dx != 0.0f) ? (f[hi] - f[lo]) / dx : 0.0f;
    }
    /* d/dy */
    if (ny > 1) {
        int lo = (j == 0)      ? idx : idx - nx;
        int hi = (j == ny - 1) ? idx : idx + nx;
        float dy = y[hi] - y[lo];
        g.s1 = (dy != 0.0f) ? (f[hi] - f[lo]) / dy : 0.0f;
    }
    /* d/dz */
    if (nz > 1) {
        int lo = (k == 0)      ? idx : idx - nx * ny;
        int hi = (k == nz - 1) ? idx : idx + nx * ny;
        float dz = z[hi] - z[lo];
        g.s2 = (dz != 0.0f) ? (f[hi] - f[lo]) / dz : 0.0f;
    }
    return g;
}"#;

/// Minimum elements per rayon task: amortizes scheduling overhead without
/// hurting load balance for problem-sized arrays. The size actually used
/// per launch is [`dfg_exec::effective_chunk`], which scales this up to
/// bound the task count at ~4 per worker thread.
const PAR_CHUNK: usize = 16 * 1024;

impl DeviceKernel for Primitive {
    fn name(&self) -> String {
        match self {
            // Not `kernel_name`, which labels this one filter `mult` (Fig 4).
            Primitive::Bin(k) => k.name().into(),
            Primitive::ConstFill(v) => format!("const_fill_{v}"),
            other => other.filter_op().kernel_name(),
        }
    }

    fn cost(&self, n: usize) -> KernelCost {
        let n = n as u64;
        let (read_lanes, written_lanes): (u64, u64) = match self {
            Primitive::Bin(_) => (2, 1),
            Primitive::Un(_) => (1, 1),
            Primitive::Select => (3, 1),
            Primitive::Compose3 => (3, 4),
            Primitive::Decompose(_) => (1, 1),
            Primitive::ConstFill(_) => (0, 1),
            // field + 3 coords at 2 points per axis + self lookups ≈ 12
            // loads, 16 B written (float4).
            Primitive::Grad3d => (12, 4),
            Primitive::Norm3 => (4, 1),
            Primitive::Dot3 => (8, 1),
            Primitive::Cross3 => (8, 4),
        };
        KernelCost {
            bytes_read: 4 * read_lanes * n,
            bytes_written: 4 * written_lanes * n,
            flops: self.filter_op().flops_per_elem() * n,
        }
    }

    fn run(&self, args: KernelArgs<'_>) {
        let n = args.n;
        // Scale the chunk size to the live thread count (`DFG_NUM_THREADS`
        // aware): at most ~4 tasks per worker, and one chunk when serial.
        // Every arm is element-wise, so results are bit-identical for every
        // thread count.
        let chunk = dfg_exec::effective_chunk(n, PAR_CHUNK);
        // `body(at, out)`: one task's `lanes`-wide output cells, the first
        // of which is cell `at`.
        let mut tasks = |lanes: usize, body: &(dyn Fn(usize, &mut [f32]) + Sync)| {
            args.output[..lanes * n]
                .par_chunks_mut(lanes * chunk)
                .enumerate()
                .for_each(|(c, out)| body(c * chunk, out));
        };
        let input = |i: usize| args.inputs[i];
        match *self {
            Primitive::Bin(k) => tasks(1, &|at, out| {
                k.apply(out, &input(0)[at..], &input(1)[at..]);
            }),
            Primitive::Un(k) => tasks(1, &|at, out| k.apply(out, &input(0)[at..])),
            Primitive::Select => tasks(1, &|at, out| {
                let len = out.len();
                let (c, a, b) = (
                    &input(0)[at..][..len],
                    &input(1)[at..][..len],
                    &input(2)[at..][..len],
                );
                for (t, o) in out.iter_mut().enumerate() {
                    *o = select(c[t], a[t], b[t]);
                }
            }),
            Primitive::Compose3 => tasks(4, &|at, out| {
                let len = out.len() / 4;
                let (a, b, c) = (
                    &input(0)[at..][..len],
                    &input(1)[at..][..len],
                    &input(2)[at..][..len],
                );
                for (t, o) in out.chunks_exact_mut(4).enumerate() {
                    o.copy_from_slice(&[a[t], b[t], c[t], 0.0]);
                }
            }),
            Primitive::Decompose(comp) => tasks(1, &|at, out| {
                let v = input(0)[4 * at..].chunks_exact(4);
                for (o, v) in out.iter_mut().zip(v) {
                    *o = v[comp as usize];
                }
            }),
            Primitive::ConstFill(val) => tasks(1, &|_, out| out.fill(val)),
            Primitive::Grad3d => {
                let d = Dims3::from_buffer(input(1));
                // The stencil writes planar rows; the primitive's output is
                // per-cell `float4`, so a task interleaves one block of row
                // scratch at a time.
                let width = chunk_width(3);
                tasks(4, &|at, out| {
                    let mut rows = vec![0.0f32; 3 * width];
                    for (b, out) in out.chunks_mut(4 * width).enumerate() {
                        let [gx, gy, gz] = lanes3(&mut rows, width, out.len() / 4);
                        let base = at + b * width;
                        gradient_span(
                            input(0),
                            input(2),
                            input(3),
                            input(4),
                            d,
                            base,
                            [&mut *gx, &mut *gy, &mut *gz],
                        );
                        for (t, o) in out.chunks_exact_mut(4).enumerate() {
                            o.copy_from_slice(&[gx[t], gy[t], gz[t], 0.0]);
                        }
                    }
                });
            }
            Primitive::Norm3 => tasks(1, &|at, out| {
                let v = input(0)[4 * at..].chunks_exact(4);
                for (o, v) in out.iter_mut().zip(v) {
                    *o = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                }
            }),
            Primitive::Dot3 => tasks(1, &|at, out| {
                let (a, b) = (
                    input(0)[4 * at..].chunks_exact(4),
                    input(1)[4 * at..].chunks_exact(4),
                );
                for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
                    *o = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
                }
            }),
            Primitive::Cross3 => tasks(4, &|at, out| {
                let (a, b) = (
                    input(0)[4 * at..].chunks_exact(4),
                    input(1)[4 * at..].chunks_exact(4),
                );
                for ((o, a), b) in out.chunks_exact_mut(4).zip(a).zip(b) {
                    o[0] = a[1] * b[2] - a[2] * b[1];
                    o[1] = a[2] * b[0] - a[0] * b[2];
                    o[2] = a[0] * b[1] - a[1] * b[0];
                    o[3] = 0.0;
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_ocl::{Context, DeviceProfile, ExecMode};

    fn run_prim(p: Primitive, inputs: &[Vec<f32>], out_lanes: usize, n: usize) -> Vec<f32> {
        let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let ids: Vec<_> = inputs
            .iter()
            .map(|v| {
                let id = ctx.create_buffer(v.len()).unwrap();
                ctx.enqueue_write(id, v).unwrap();
                id
            })
            .collect();
        let out = ctx.create_buffer(out_lanes).unwrap();
        ctx.launch(&p, &ids, out, n).unwrap();
        ctx.enqueue_read(out).unwrap()
    }

    #[test]
    fn binary_ops_elementwise() {
        let a = vec![1.0, 4.0, 9.0, -2.0];
        let b = vec![2.0, 2.0, 3.0, -2.0];
        assert_eq!(
            run_prim(Primitive::Bin(BinKind::Add), &[a.clone(), b.clone()], 4, 4),
            vec![3.0, 6.0, 12.0, -4.0]
        );
        assert_eq!(
            run_prim(Primitive::Bin(BinKind::Div), &[a.clone(), b.clone()], 4, 4),
            vec![0.5, 2.0, 3.0, 1.0]
        );
        assert_eq!(
            run_prim(Primitive::Bin(BinKind::Gt), &[a.clone(), b.clone()], 4, 4),
            vec![0.0, 1.0, 1.0, 0.0]
        );
        assert_eq!(
            run_prim(Primitive::Bin(BinKind::Eq), &[a, b], 4, 4),
            vec![0.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn unary_ops_elementwise() {
        let a = vec![4.0, -9.0, 0.25];
        assert_eq!(
            run_prim(Primitive::Un(UnKind::Sqrt), &[vec![4.0, 9.0, 0.25]], 3, 3),
            vec![2.0, 3.0, 0.5]
        );
        assert_eq!(
            run_prim(Primitive::Un(UnKind::Neg), std::slice::from_ref(&a), 3, 3),
            vec![-4.0, 9.0, -0.25]
        );
        assert_eq!(
            run_prim(Primitive::Un(UnKind::Abs), &[a], 3, 3),
            vec![4.0, 9.0, 0.25]
        );
    }

    /// The constant folder (`dfg_dataflow::eval_scalar`) and the kernels call
    /// the same `eval`/`select` functions, so there is no second copy of the
    /// binary and unary arithmetic to compare. What is still worth pinning is
    /// the launch path around them: `select` over a grid with signed zeros,
    /// and comparisons against NaN, folded vs run through `Primitive::run`.
    #[test]
    fn optimizer_fold_mirror_matches_primitive_eval() {
        use dfg_dataflow::eval_scalar;

        let samples = [
            -2.5f32,
            -1.0,
            -0.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            3.25,
            f32::MIN_POSITIVE,
            1.0e20,
            f32::NAN,
        ];
        let check = |op: FilterOp, args: &[Vec<f32>]| {
            let n = args[0].len();
            let kernel = Primitive::from_filter_op(&op).expect("compute op");
            let device = run_prim(kernel, args, n, n);
            for t in 0..n {
                let at: Vec<f32> = args.iter().map(|a| a[t]).collect();
                let folded = eval_scalar(&op, &at).expect("scalar op folds");
                assert_eq!(folded.to_bits(), device[t].to_bits(), "{op:?} on {at:?}");
            }
        };

        // Every (c, a, b) triple of the grid, one launch.
        let triples = samples
            .iter()
            .flat_map(|&c| samples.iter().map(move |&a| (c, a)))
            .flat_map(|(c, a)| samples.iter().map(move |&b| [c, a, b]));
        let lanes = |i: usize| triples.clone().map(|t| t[i]).collect::<Vec<f32>>();
        check(FilterOp::Select, &[lanes(0), lanes(1), lanes(2)]);
        for kind in [BinKind::Lt, BinKind::Ge, BinKind::Eq, BinKind::Ne] {
            let nan = vec![f32::NAN; samples.len()];
            check(kind.into(), &[nan.clone(), samples.to_vec()]);
            check(kind.into(), &[samples.to_vec(), nan]);
        }
    }

    /// The slice forms are `eval`, lane for lane, for every kind — on the
    /// values where a vectorized loop could plausibly differ: signed zeros,
    /// NaN, infinities and subnormals.
    #[test]
    fn slice_forms_equal_eval_bit_for_bit_for_every_kind() {
        let tiny = f32::from_bits(1);
        let vals = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::MIN_POSITIVE / 2.0,
            1.0,
            -2.5,
            3.0e38,
        ];
        // Every ordered pair, padded past one vector width.
        let a: Vec<f32> = vals.iter().flat_map(|&a| vals.map(|_| a)).collect();
        let b: Vec<f32> = vals.iter().flat_map(|_| vals).collect();
        let mut out = vec![0.0f32; a.len()];
        for k in BinKind::ALL {
            k.apply(&mut out, &a, &b);
            for t in 0..a.len() {
                let want = k.eval(a[t], b[t]);
                assert_eq!(
                    out[t].to_bits(),
                    want.to_bits(),
                    "{k:?}({}, {})",
                    a[t],
                    b[t]
                );
            }
            let staged = run_prim(Primitive::Bin(k), &[a.clone(), b.clone()], a.len(), a.len());
            assert_eq!(staged.len(), out.len());
            assert!(staged
                .iter()
                .zip(&out)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        for k in UnKind::ALL {
            k.apply(&mut out, &a);
            for t in 0..a.len() {
                assert_eq!(out[t].to_bits(), k.eval(a[t]).to_bits(), "{k:?}({})", a[t]);
            }
            let staged = run_prim(Primitive::Un(k), std::slice::from_ref(&a), a.len(), a.len());
            assert!(staged
                .iter()
                .zip(&out)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn select_uses_nonzero_condition() {
        let out = run_prim(
            Primitive::Select,
            &[
                vec![1.0, 0.0, -1.0],
                vec![10.0, 11.0, 12.0],
                vec![20.0, 21.0, 22.0],
            ],
            3,
            3,
        );
        assert_eq!(out, vec![10.0, 21.0, 12.0]);
    }

    #[test]
    fn decompose_extracts_lanes() {
        let v = vec![
            1.0, 2.0, 3.0, 0.0, //
            4.0, 5.0, 6.0, 0.0,
        ];
        assert_eq!(
            run_prim(Primitive::Decompose(0), std::slice::from_ref(&v), 2, 2),
            vec![1.0, 4.0]
        );
        assert_eq!(
            run_prim(Primitive::Decompose(2), &[v], 2, 2),
            vec![3.0, 6.0]
        );
    }

    #[test]
    fn const_fill_fills() {
        assert_eq!(run_prim(Primitive::ConstFill(0.5), &[], 3, 3), vec![0.5; 3]);
    }

    #[test]
    fn norm_dot_cross() {
        let a = vec![1.0, 2.0, 2.0, 0.0];
        let b = vec![0.0, 1.0, 0.0, 0.0];
        assert_eq!(
            run_prim(Primitive::Norm3, std::slice::from_ref(&a), 1, 1),
            vec![3.0]
        );
        assert_eq!(
            run_prim(Primitive::Dot3, &[a.clone(), b.clone()], 1, 1),
            vec![2.0]
        );
        let c = run_prim(Primitive::Cross3, &[a, b], 4, 1);
        assert_eq!(c, vec![-2.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn grad3d_on_linear_field() {
        use dfg_mesh::RectilinearMesh;
        let mesh = RectilinearMesh::uniform([4, 3, 3], [0.0; 3], [0.5, 1.0, 0.25]);
        let (x, y, z) = mesh.coord_arrays();
        let f = mesh.sample(|x, y, z| 2.0 * x - y + 4.0 * z);
        let n = mesh.ncells();
        let out = run_prim(
            Primitive::Grad3d,
            &[f, mesh.dims_buffer(), x, y, z],
            4 * n,
            n,
        );
        for e in 0..n {
            assert!((out[4 * e] - 2.0).abs() < 1e-4, "d/dx at {e}");
            assert!((out[4 * e + 1] + 1.0).abs() < 1e-4, "d/dy at {e}");
            assert!((out[4 * e + 2] - 4.0).abs() < 1e-4, "d/dz at {e}");
            assert_eq!(out[4 * e + 3], 0.0);
        }
    }

    #[test]
    fn filter_op_mapping_covers_all_compute_ops() {
        assert!(Primitive::from_filter_op(&FilterOp::Input {
            name: "u".into(),
            small: false
        })
        .is_none());
        assert_eq!(
            Primitive::from_filter_op(&FilterOp::Const(0.5)),
            Some(Primitive::ConstFill(0.5))
        );
        assert_eq!(
            Primitive::from_filter_op(&FilterOp::Decompose(2)),
            Some(Primitive::Decompose(2))
        );
        assert_eq!(
            Primitive::from_filter_op(&FilterOp::Grad3d),
            Some(Primitive::Grad3d)
        );
        // `filter_op` is the inverse, so a kernel's label and flops are its
        // filter's: the staged `mul` vs Fig 4's `mult` is the one exception.
        let scalar = BinKind::ALL.into_iter().map(FilterOp::from);
        for op in scalar.chain(UnKind::ALL.into_iter().map(FilterOp::from)) {
            let prim = Primitive::from_filter_op(&op).expect("compute op");
            assert_eq!(prim.filter_op(), op);
            assert_eq!(prim.cost(1).flops, op.flops_per_elem());
            if op != FilterOp::Bin(BinKind::Mul) {
                assert_eq!(prim.name(), op.kernel_name());
            }
        }
        assert_eq!(Primitive::Bin(BinKind::Mul).name(), "mul");
    }

    #[test]
    fn opencl_sources_are_plausible() {
        assert!(Primitive::Bin(BinKind::Add)
            .opencl_source()
            .contains("a + b"));
        assert!(Primitive::Decompose(1).opencl_source().contains("v.s1"));
        assert!(Primitive::Grad3d.opencl_source().lines().count() > 30);
        assert!(Primitive::Grad3d.opencl_source().contains("__global"));
    }

    #[test]
    fn cost_scales_with_n() {
        let c1 = Primitive::Bin(BinKind::Add).cost(100);
        let c2 = Primitive::Bin(BinKind::Add).cost(200);
        assert_eq!(c2.bytes_read, 2 * c1.bytes_read);
        assert_eq!(c1.bytes_read, 800);
        assert_eq!(c1.bytes_written, 400);
    }

    #[test]
    fn large_launch_exercises_parallel_chunks() {
        let n = PAR_CHUNK * 2 + 17;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b = vec![1.0f32; n];
        let out = run_prim(Primitive::Bin(BinKind::Add), &[a, b], n, n);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[n - 1], n as f32);
        assert_eq!(out[PAR_CHUNK], PAR_CHUNK as f32 + 1.0);
    }
}
