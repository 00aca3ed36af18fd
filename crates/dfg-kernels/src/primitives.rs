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
//!
//! A `Vec4` buffer is the paper's `float4` array in size, but planar in
//! storage: lanes `k·n .. (k+1)·n` hold component `k` of the `n` cells. The
//! stencil's native output is planar, so `grad3d` writes its three planes
//! directly; a `decompose` is one plane, which a launch can share instead of
//! copying ([`DeviceKernel::view`]); and the zero fourth lane is never
//! written ([`DeviceKernel::unwritten_from`]). Hosts see `float4` cells: a
//! download interleaves.

use std::ops::Range;

use dfg_dataflow::{select, BinKind, FilterOp, UnKind, Width};
use dfg_ocl::{DeviceKernel, KernelArgs, KernelCost};
use rayon::prelude::*;

use crate::grad::{gradient_span, Dims3};

/// A standalone device kernel for one dataflow primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Primitive {
    /// Elementwise binary op: inputs `[a, b]`, scalar out.
    Bin(BinKind),
    /// Elementwise unary op: inputs `[a]`, scalar out.
    Un(UnKind),
    /// `select(cond, a, b)`: inputs `[cond, a, b]`, scalar out.
    Select,
    /// Extract vec4 component `k`: inputs `[v]`, scalar out — `v`'s plane `k`.
    Decompose(u8),
    /// Fill the output with a constant (staged's constant materialization).
    ConstFill(f32),
    /// Pack three scalars into a vec4: inputs `[a, b, c]`, vec4 out whose
    /// planes are `a`, `b`, `c` and zeros.
    Compose3,
    /// Gradient: inputs `[field, dims, x, y, z]`, vec4 out (the planes
    /// `∂/∂x`, `∂/∂y`, `∂/∂z` and zeros).
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

    fn in_place(&self) -> bool {
        matches!(self, Primitive::Bin(_) | Primitive::Un(_))
    }

    fn view(&self, n: usize) -> Option<Range<usize>> {
        let Primitive::Decompose(k) = *self else {
            return None;
        };
        Some(k as usize * n..(k as usize + 1) * n)
    }

    fn unwritten_from(&self, n: usize) -> Option<usize> {
        (self.filter_op().width() == Width::Vec4).then_some(3 * n)
    }

    fn run(&self, args: KernelArgs<'_>) {
        let n = args.n;
        // Scale the chunk size to the live thread count (`DFG_NUM_THREADS`
        // aware): at most ~4 tasks per worker, and one chunk when serial.
        // Every arm is element-wise, so results are bit-identical for every
        // thread count.
        let chunk = dfg_exec::effective_chunk(n, PAR_CHUNK);
        // An operand whose storage this launch took (`in_place`) is `None`.
        let operands: Vec<Option<&[f32]>> =
            (0..args.inputs.len()).map(|i| args.operand(i)).collect();
        let operand = |i: usize, at: usize| operands[i].map(|v| &v[at..]);
        // `body(at, out)`: one task's cells of the output plane `plane`, the
        // first of which is cell `at`.
        let tasks = |plane: &mut [f32], body: &(dyn Fn(usize, &mut [f32]) + Sync)| {
            plane[..n]
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(c, out)| body(c * chunk, out));
        };
        // Lane `k`'s plane of input `i`, over cells `at..at + len`.
        let lane = |i: usize, k: usize, at: usize, len: usize| &args.inputs[i][k * n + at..][..len];
        let (out, input) = (args.output, |i: usize| args.inputs[i]);
        match *self {
            Primitive::Bin(k) => tasks(out, &|at, out| {
                k.apply_in_place(out, operand(0, at), operand(1, at));
            }),
            Primitive::Un(k) => tasks(out, &|at, out| k.apply_in_place(out, operand(0, at))),
            Primitive::Select => tasks(out, &|at, out| {
                let [c, a, b] = [0, 1, 2].map(|i| lane(i, 0, at, out.len()));
                for (t, o) in out.iter_mut().enumerate() {
                    *o = select(c[t], a[t], b[t]);
                }
            }),
            Primitive::Compose3 => {
                for (k, plane) in out.chunks_exact_mut(n.max(1)).take(3).enumerate() {
                    tasks(plane, &|at, out| {
                        out.copy_from_slice(lane(k, 0, at, out.len()))
                    });
                }
            }
            Primitive::Decompose(k) => tasks(out, &|at, out| {
                out.copy_from_slice(lane(0, k as usize, at, out.len()));
            }),
            Primitive::ConstFill(val) => tasks(out, &|_, out| out.fill(val)),
            Primitive::Grad3d => {
                let d = Dims3::from_buffer(input(1));
                let (gx, rest) = out.split_at_mut(n);
                let (gy, gz) = rest.split_at_mut(n);
                (gx.par_chunks_mut(chunk).zip(gy.par_chunks_mut(chunk)))
                    .zip(gz[..n].par_chunks_mut(chunk))
                    .enumerate()
                    .for_each(|(c, ((gx, gy), gz))| {
                        let (f, x, y, z) = (input(0), input(2), input(3), input(4));
                        gradient_span(f, x, y, z, d, c * chunk, [gx, gy, gz]);
                    });
            }
            Primitive::Norm3 => tasks(out, &|at, out| {
                let [x, y, z] = [0, 1, 2].map(|k| lane(0, k, at, out.len()));
                for (t, o) in out.iter_mut().enumerate() {
                    *o = (x[t] * x[t] + y[t] * y[t] + z[t] * z[t]).sqrt();
                }
            }),
            Primitive::Dot3 => tasks(out, &|at, out| {
                let [a0, a1, a2] = [0, 1, 2].map(|k| lane(0, k, at, out.len()));
                let [b0, b1, b2] = [0, 1, 2].map(|k| lane(1, k, at, out.len()));
                for (t, o) in out.iter_mut().enumerate() {
                    *o = a0[t] * b0[t] + a1[t] * b1[t] + a2[t] * b2[t];
                }
            }),
            // Lane `l` is `a.p * b.q - a.q * b.p` for the cyclic pair `(p, q)`
            // after `l`.
            Primitive::Cross3 => {
                let pairs = [(1, 2), (2, 0), (0, 1)];
                for (plane, (p, q)) in out.chunks_exact_mut(n.max(1)).zip(pairs) {
                    tasks(plane, &|at, out| {
                        let len = out.len();
                        let (ap, bq) = (lane(0, p, at, len), lane(1, q, at, len));
                        let (aq, bp) = (lane(0, q, at, len), lane(1, p, at, len));
                        for (t, o) in out.iter_mut().enumerate() {
                            *o = ap[t] * bq[t] - aq[t] * bp[t];
                        }
                    });
                }
            }
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

    /// A vec4 of two cells, `(1, 2, 3, 0)` and `(4, 5, 6, 0)`, is four
    /// planes; a decompose launch shares one, and the kernel body — which
    /// runs when the operand is an adopted host array — copies it.
    #[test]
    fn decompose_extracts_lanes() {
        let v = vec![
            1.0, 4.0, //
            2.0, 5.0, //
            3.0, 6.0, //
            0.0, 0.0,
        ];
        for (k, want) in [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0], [0.0, 0.0]]
            .into_iter()
            .enumerate()
        {
            let prim = Primitive::Decompose(k as u8);
            assert_eq!(prim.view(2), Some(2 * k..2 * k + 2));
            assert_eq!(run_prim(prim, std::slice::from_ref(&v), 2, 2), want);
            let mut out = [9.0; 2];
            prim.run(KernelArgs {
                inputs: &[&v],
                output: &mut out,
                n: 2,
            });
            assert_eq!(out, want);
        }
    }

    #[test]
    fn const_fill_fills() {
        assert_eq!(run_prim(Primitive::ConstFill(0.5), &[], 3, 3), vec![0.5; 3]);
    }

    /// Two cells, planar: `a` is `(1, 2, 2)` and `(0, 3, 4)`, `b` is
    /// `(0, 1, 0)` and `(1, 0, 0)`.
    #[test]
    fn norm_dot_cross() {
        let a = vec![1.0, 0.0, 2.0, 3.0, 2.0, 4.0, 0.0, 0.0];
        let b = vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(
            run_prim(Primitive::Norm3, std::slice::from_ref(&a), 2, 2),
            vec![3.0, 5.0]
        );
        assert_eq!(
            run_prim(Primitive::Dot3, &[a.clone(), b.clone()], 2, 2),
            vec![2.0, 0.0]
        );
        let c = run_prim(Primitive::Cross3, &[a, b], 8, 2);
        assert_eq!(c, vec![-2.0, 0.0, 0.0, 4.0, 1.0, -3.0, 0.0, 0.0]);
    }

    /// The fourth plane of a vec4 output is never written: fresh storage
    /// holds zeros there, and a launch into recycled storage — poisoned on
    /// release — clears it.
    #[test]
    fn vec4_outputs_read_zero_in_their_fourth_plane() {
        use dfg_mesh::RectilinearMesh;
        let mesh = RectilinearMesh::unit_cube([5, 3, 2]);
        let n = mesh.ncells();
        let (x, y, z) = mesh.coord_arrays();
        let f = mesh.sample(|x, y, z| x * y - z);
        let v = |s: f32| (0..4 * n).map(|i| s * i as f32).collect::<Vec<f32>>();
        let launches = [
            (Primitive::Compose3, vec![x.clone(), y.clone(), z.clone()]),
            (Primitive::Cross3, vec![v(0.5), v(-1.5)]),
            (Primitive::Grad3d, vec![f, mesh.dims_buffer(), x, y, z]),
        ];
        let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        ctx.set_pooling(true);
        ctx.debug_set_poison(true);
        for (p, inputs) in launches {
            let ids: Vec<_> = (inputs.iter())
                .map(|v| {
                    let id = ctx.create_buffer(v.len()).unwrap();
                    ctx.enqueue_write(id, v).unwrap();
                    id
                })
                .collect();
            for recycled in [false, true] {
                let out = ctx.create_buffer(4 * n).unwrap();
                ctx.launch(&p, &ids, out, n).unwrap();
                let lanes = ctx.enqueue_read(out).unwrap();
                assert!(lanes[3 * n..].iter().all(|&l| l == 0.0), "{p:?} {recycled}");
                ctx.release(out).unwrap();
            }
            ids.into_iter().for_each(|id| ctx.release(id).unwrap());
        }
        assert!(ctx.pool_hits() >= 3);
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
        // Planar: the ∂/∂x plane, then ∂/∂y, ∂/∂z and zeros.
        for e in 0..n {
            assert!((out[e] - 2.0).abs() < 1e-4, "d/dx at {e}");
            assert!((out[n + e] + 1.0).abs() < 1e-4, "d/dy at {e}");
            assert!((out[2 * n + e] - 4.0).abs() < 1e-4, "d/dz at {e}");
            assert_eq!(out[3 * n + e], 0.0);
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
