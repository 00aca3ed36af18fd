//! Hand-written reference kernels (§IV-D.1).
//!
//! *"We also compared our … execution strategies to reference OpenCL kernels
//! written for each of the three vortex detection expressions. The reference
//! kernels have the same input and output global device memory constraints
//! as our fusion strategy. They were written to directly compute the desired
//! expression and hence are able to execute the expressions using less
//! memory fetches and floating point operations than our strategies."*
//!
//! Each reference kernel is a single launch taking exactly the inputs the
//! fused kernel takes, with a hand-minimized body.

use dfg_ocl::{DeviceKernel, KernelCost, LaunchArgs, OutLanes};

use crate::fused::chunk_width;
use crate::grad::{gradient_span, Dims3};
use crate::primitives::par_pieces;

/// Minimum elements per rayon task; scaled up per launch by
/// [`dfg_exec::effective_chunk`] to match the live thread count.
const PAR_CHUNK: usize = 8 * 1024;

/// The velocity-gradient rows of one block of cells: `j[r][c]` holds
/// `∂(u, v, w)[r] / ∂(x, y, z)[c]`, one lane per cell.
type Jacobian<'a> = [[&'a [f32]; 3]; 3];

/// The Jacobian entries [`VortMagRef`]'s curl reads: the six off the
/// diagonal (`reads[r][c]`: it reads `j[r][c]`).
pub(crate) const VORT_MAG_READS: [[bool; 3]; 3] = [
    [false, true, true],
    [true, false, true],
    [true, true, false],
];

/// The Jacobian entries [`QCritRef`] reads: all nine.
pub(crate) const Q_CRIT_READS: [[bool; 3]; 3] = [[true; 3]; 3];

/// Drive a gradient reference kernel (inputs `[u, v, w, dims, x, y, z]`):
/// split the launch into tasks, walk each task in blocks of row scratch,
/// fill the rows of the block's Jacobian that `reads` names (`reads[r][c]`:
/// `body` reads `j[r][c]`) with the shared stencil, and let `body` turn them
/// into the block's output with one slice loop.
fn for_jacobian_blocks(
    args: LaunchArgs<'_>,
    reads: [[bool; 3]; 3],
    body: impl Fn(Jacobian<'_>, OutLanes<'_>) + Sync,
) {
    let chunk = dfg_exec::effective_chunk(args.n, PAR_CHUNK);
    let inputs = args.inputs;
    let d = Dims3::from_buffer(inputs[3]);
    let (x, y, z) = (inputs[4], inputs[5], inputs[6]);
    let width = chunk_width(9);
    let pieces = args.output.slice(..args.n).chunks(chunk).collect();
    par_pieces(pieces, |c, out| {
        let mut rows = vec![0.0f32; 9 * width];
        for (b, out) in out.reborrow().chunks(width).enumerate() {
            let (base, len) = (c * chunk + b * width, out.len());
            for (r, rows) in rows.chunks_mut(3 * width).enumerate() {
                let mut rows = rows.chunks_mut(width);
                let lanes = reads[r].map(|read| {
                    let row = rows.next().filter(|_| read);
                    row.map(|row| OutLanes::from(&mut row[..len]))
                });
                gradient_span(inputs[r], x, y, z, d, base, lanes);
            }
            let row = |i: usize| &rows[i * width..][..len];
            let jacobian = [0, 3, 6].map(|r| [row(r), row(r + 1), row(r + 2)]);
            body(jacobian, out);
        }
    });
}

/// Reference kernel for velocity magnitude. Inputs: `[u, v, w]`.
pub struct VelMagRef;

impl DeviceKernel for VelMagRef {
    fn name(&self) -> String {
        "ref_velocity_magnitude".into()
    }

    fn cost(&self, n: usize) -> KernelCost {
        let n = n as u64;
        KernelCost {
            bytes_read: 12 * n,
            bytes_written: 4 * n,
            flops: 9 * n,
        }
    }

    fn unwritten_from(&self, n: usize) -> Option<usize> {
        Some(n)
    }

    fn write(&self, args: LaunchArgs<'_>) {
        let chunk = dfg_exec::effective_chunk(args.n, PAR_CHUNK);
        let (u, v, w) = (args.inputs[0], args.inputs[1], args.inputs[2]);
        let pieces = args.output.slice(..args.n).chunks(chunk).collect();
        par_pieces(pieces, |c, out| {
            let (at, len) = (c * chunk, out.len());
            let (u, v, w) = (&u[at..][..len], &v[at..][..len], &w[at..][..len]);
            for (t, o) in out.iter_mut().enumerate() {
                o.set((u[t] * u[t] + v[t] * v[t] + w[t] * w[t]).sqrt());
            }
        });
    }
}

/// Reference kernel for vorticity magnitude.
/// Inputs: `[u, v, w, dims, x, y, z]`.
pub struct VortMagRef;

impl DeviceKernel for VortMagRef {
    fn name(&self) -> String {
        "ref_vorticity_magnitude".into()
    }

    fn cost(&self, n: usize) -> KernelCost {
        let n = n as u64;
        // Three gradients (12 lane-reads each, but sharing coordinate
        // fetches): ~30 lane-reads, one lane written.
        KernelCost {
            bytes_read: 120 * n,
            bytes_written: 4 * n,
            flops: 80 * n,
        }
    }

    fn unwritten_from(&self, n: usize) -> Option<usize> {
        Some(n)
    }

    fn write(&self, args: LaunchArgs<'_>) {
        for_jacobian_blocks(args, VORT_MAG_READS, |[du, dv, dw], mut out| {
            for (t, o) in out.iter_mut().enumerate() {
                let wx = dw[1][t] - dv[2][t];
                let wy = du[2][t] - dw[0][t];
                let wz = dv[0][t] - du[1][t];
                o.set((wx * wx + wy * wy + wz * wz).sqrt());
            }
        });
    }
}

/// Reference kernel for the Q-criterion.
/// Inputs: `[u, v, w, dims, x, y, z]`.
pub struct QCritRef;

impl DeviceKernel for QCritRef {
    fn name(&self) -> String {
        "ref_q_criterion".into()
    }

    fn cost(&self, n: usize) -> KernelCost {
        let n = n as u64;
        KernelCost {
            bytes_read: 120 * n,
            bytes_written: 4 * n,
            flops: 110 * n,
        }
    }

    fn unwritten_from(&self, n: usize) -> Option<usize> {
        Some(n)
    }

    fn write(&self, args: LaunchArgs<'_>) {
        for_jacobian_blocks(args, Q_CRIT_READS, |[du, dv, dw], mut out| {
            for (t, o) in out.iter_mut().enumerate() {
                // S = ½(J + Jᵀ), Ω = ½(J − Jᵀ); Q = ½(‖Ω‖² − ‖S‖²).
                let s1 = 0.5 * (du[1][t] + dv[0][t]);
                let s2 = 0.5 * (du[2][t] + dw[0][t]);
                let s5 = 0.5 * (dv[2][t] + dw[1][t]);
                let w1 = 0.5 * (du[1][t] - dv[0][t]);
                let w2 = 0.5 * (du[2][t] - dw[0][t]);
                let w5 = 0.5 * (dv[2][t] - dw[1][t]);
                let s_norm = du[0][t] * du[0][t]
                    + dv[1][t] * dv[1][t]
                    + dw[2][t] * dw[2][t]
                    + 2.0 * (s1 * s1 + s2 * s2 + s5 * s5);
                let w_norm = 2.0 * (w1 * w1 + w2 * w2 + w5 * w5);
                o.set(0.5 * (w_norm - s_norm));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_mesh::analytic::taylor_green;
    use dfg_mesh::RectilinearMesh;
    use dfg_ocl::{Context, DeviceProfile, ExecMode};

    fn launch(kernel: &dyn DeviceKernel, fields: &[Vec<f32>], n: usize) -> Vec<f32> {
        let mut ctx = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Real);
        let ids: Vec<_> = fields
            .iter()
            .map(|f| {
                let id = ctx.create_buffer(f.len()).unwrap();
                ctx.enqueue_write(id, f).unwrap();
                id
            })
            .collect();
        let out = ctx.create_buffer(n).unwrap();
        ctx.launch(kernel, &ids, out, n).unwrap();
        ctx.enqueue_read(out).unwrap()
    }

    fn tg_fields(dims: [usize; 3]) -> (RectilinearMesh, Vec<Vec<f32>>) {
        // Taylor–Green over [0, 2π]³.
        let tau = std::f32::consts::TAU;
        let mesh = RectilinearMesh::uniform(
            dims,
            [0.0; 3],
            [
                tau / dims[0] as f32,
                tau / dims[1] as f32,
                tau / dims[2] as f32,
            ],
        );
        let (x, y, z) = mesh.coord_arrays();
        let u = mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[0]);
        let v = mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[1]);
        let w = mesh.sample(|x, y, z| taylor_green::velocity(x, y, z)[2]);
        let dims_buf = mesh.dims_buffer();
        (mesh, vec![u, v, w, dims_buf, x, y, z])
    }

    #[test]
    fn velmag_reference_computes_magnitude() {
        let out = launch(
            &VelMagRef,
            &[vec![3.0, 0.0], vec![4.0, 0.0], vec![0.0, 2.0]],
            2,
        );
        assert_eq!(out, vec![5.0, 2.0]);
    }

    #[test]
    fn vortmag_reference_matches_taylor_green_interior() {
        let n = 24usize;
        let (mesh, fields) = tg_fields([n, n, 4]);
        let out = launch(&VortMagRef, &fields, mesh.ncells());
        // Compare interior cells against the exact |curl| = |2 sin x sin y|.
        let mut checked = 0;
        for j in 2..n - 2 {
            for i in 2..n - 2 {
                let idx = mesh.index(i, j, 2);
                let c = mesh.cell_center(i, j, 2);
                let exact = taylor_green::vorticity(c[0], c[1], c[2])[2].abs();
                assert!(
                    (out[idx] - exact).abs() < 0.06,
                    "({i},{j}): {} vs {exact}",
                    out[idx]
                );
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn qcrit_reference_matches_taylor_green_interior() {
        let n = 24usize;
        let (mesh, fields) = tg_fields([n, n, 4]);
        let out = launch(&QCritRef, &fields, mesh.ncells());
        for j in 2..n - 2 {
            for i in 2..n - 2 {
                let idx = mesh.index(i, j, 2);
                let c = mesh.cell_center(i, j, 2);
                let exact = taylor_green::q_criterion(c[0], c[1], c[2]);
                assert!(
                    (out[idx] - exact).abs() < 0.08,
                    "({i},{j}): {} vs {exact}",
                    out[idx]
                );
            }
        }
    }

    #[test]
    fn reference_costs_are_single_kernel_scale() {
        let c = QCritRef.cost(1000);
        assert_eq!(c.bytes_written, 4000);
        assert!(c.flops > 0);
    }
}
