//! The 3D rectilinear-mesh gradient stencil.
//!
//! This is the "complex multi-line operation" of the paper (§III-C.3: *"the
//! 3D rectilinear mesh field gradient requires over 50 lines of OpenCL
//! source code"*). The same routine backs the standalone `grad3d` primitive
//! kernel, the fused kernel's direct-global-memory gradient, and the
//! hand-written reference kernels — written once, shared by all execution
//! strategies, exactly as the paper's building-block library is.
//!
//! Differencing scheme: second-order central differences on the (possibly
//! non-uniform) cell-center coordinates, falling back to one-sided
//! differences on boundaries. Axes with a single cell get a zero derivative.
//!
//! A caller hands [`gradient_span`] the lanes it reads and gets only those
//! computed: the fused kernel gives no row to a derivative no step of its
//! program reads (vorticity magnitude reads six of the nine a velocity
//! Jacobian has), and the reference kernel skips the same ones; the
//! `grad3d` primitive passes all three, because a staged launch owns every
//! lane of its output.

use dfg_ocl::OutLanes;

/// Mesh dims decoded from the small `dims` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
}

impl Dims3 {
    /// Decode from the 3-lane f32 `dims` buffer.
    ///
    /// # Panics
    /// Panics if the buffer has fewer than 3 lanes.
    pub fn from_buffer(dims: &[f32]) -> Self {
        assert!(dims.len() >= 3, "dims buffer must hold [nx, ny, nz]");
        Dims3 {
            nx: dims[0] as usize,
            ny: dims[1] as usize,
            nz: dims[2] as usize,
        }
    }

    /// Total cells.
    pub fn ncells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Decompose a linear x-major index into `(i, j, k)`.
    #[inline]
    pub fn unravel(&self, idx: usize) -> (usize, usize, usize) {
        let i = idx % self.nx;
        let j = (idx / self.nx) % self.ny;
        let k = idx / (self.nx * self.ny);
        (i, j, k)
    }
}

/// Derivative of `field` along one axis at position `p` (0-based index along
/// the axis of `len` cells), where consecutive cells along the axis are
/// `stride` apart in the flattened array and `coord` holds the per-cell
/// coordinate for that axis.
#[inline]
fn axis_derivative(
    field: &[f32],
    coord: &[f32],
    idx: usize,
    p: usize,
    len: usize,
    stride: usize,
) -> f32 {
    if len < 2 {
        return 0.0;
    }
    let (lo, hi) = if p == 0 {
        (idx, idx + stride)
    } else if p == len - 1 {
        (idx - stride, idx)
    } else {
        (idx - stride, idx + stride)
    };
    let dx = coord[hi] - coord[lo];
    if dx == 0.0 {
        0.0
    } else {
        (field[hi] - field[lo]) / dx
    }
}

/// Gradient `(∂f/∂x, ∂f/∂y, ∂f/∂z)` of a cell-centered scalar field at
/// flattened index `idx`.
///
/// `x`, `y`, `z` are the flattened problem-sized per-cell coordinate arrays
/// (the same arrays the user's expression passes to `grad3d`).
///
/// This is the point-wise *specification* of the stencil. Nothing outside
/// `#[cfg(test)]` calls it any more: every kernel goes through
/// [`gradient_span`], which is tested bit for bit against this function.
#[inline]
pub fn gradient_at(
    field: &[f32],
    x: &[f32],
    y: &[f32],
    z: &[f32],
    d: Dims3,
    idx: usize,
) -> [f32; 3] {
    let (i, j, k) = d.unravel(idx);
    let sx = 1;
    let sy = d.nx;
    let sz = d.nx * d.ny;
    [
        axis_derivative(field, x, idx, i, d.nx, sx),
        axis_derivative(field, y, idx, j, d.ny, sy),
        axis_derivative(field, z, idx, k, d.nz, sz),
    ]
}

/// One axis of the stencil over a run of consecutive cells starting at
/// `start` that all difference the same way: cell `c` reads `c - lo` and
/// `c + hi`. Branch-free: divide, then select — for every lane the select
/// keeps, the same bits as [`axis_derivative`]'s test-then-divide, and
/// `lo == hi == 0` (a single-cell axis) selects 0.0 everywhere.
#[inline]
fn run_derivative(
    field: &[f32],
    coord: &[f32],
    start: usize,
    lo: usize,
    hi: usize,
    mut out: OutLanes<'_>,
) {
    let n = out.len();
    let (f_lo, f_hi) = (&field[start - lo..][..n], &field[start + hi..][..n]);
    let (c_lo, c_hi) = (&coord[start - lo..][..n], &coord[start + hi..][..n]);
    for (t, o) in out.iter_mut().enumerate() {
        let dx = c_hi[t] - c_lo[t];
        let q = (f_hi[t] - f_lo[t]) / dx;
        o.set(if dx == 0.0 { 0.0 } else { q });
    }
}

/// [`gradient_at`] over the contiguous cells `[base, base + len)`, written
/// to the planar runs of `len` output lanes (`∂/∂x`, `∂/∂y`, `∂/∂z`) that
/// are `Some`: an axis without a run costs nothing. Which axes are computed
/// is which runs are passed, so the two cannot disagree. Every lane written
/// has the bits [`gradient_at`] gives it, whichever axes are asked for.
///
/// The range is walked one x-row segment at a time: `(i, j, k)` is decoded
/// once per segment, the y/z neighbour offsets are per-row constants
/// (boundary rows clamp the missing side to 0), and the x axis peels its
/// two boundary cells, so every inner loop is a plain slice loop. This is
/// the one routine behind the `grad3d` primitive, the fused kernel's
/// gradient and the reference kernels.
///
/// # Panics
/// Panics if the output runs differ in length or the range leaves the
/// grid `d` describes (or the arrays, through their bounds checks).
pub fn gradient_span(
    field: &[f32],
    x: &[f32],
    y: &[f32],
    z: &[f32],
    d: Dims3,
    base: usize,
    [mut gx, mut gy, mut gz]: [Option<OutLanes<'_>>; 3],
) {
    let lens = [&gx, &gy, &gz].map(|lanes| lanes.as_ref().map(OutLanes::len));
    let len = lens.into_iter().flatten().max().unwrap_or(0);
    assert!(
        lens.into_iter().flatten().all(|l| l == len),
        "gradient lanes differ"
    );
    assert!(base + len <= d.ncells(), "gradient range leaves the grid");
    let (sy, sz) = (d.nx, d.nx * d.ny);
    let mut t = 0;
    while t < len {
        let idx = base + t;
        let (i, j, k) = d.unravel(idx);
        let seg = (d.nx - i).min(len - t);
        if let Some(gx) = &mut gx {
            // The segment's first cell may be i == 0, its last i == nx - 1.
            let (mut a, mut b) = (0, seg);
            if i == 0 {
                let hi = usize::from(d.nx > 1);
                run_derivative(field, x, idx, 0, hi, gx.reborrow().slice(t..t + 1));
                a = 1;
            }
            if i + seg == d.nx && a < b {
                b -= 1;
                run_derivative(field, x, idx + b, 1, 0, gx.reborrow().slice(t + b..t + seg));
            }
            if a < b {
                run_derivative(field, x, idx + a, 1, 1, gx.reborrow().slice(t + a..t + b));
            }
        }
        if let Some(gy) = &mut gy {
            let (lo, hi) = (
                if j == 0 { 0 } else { sy },
                if j + 1 == d.ny { 0 } else { sy },
            );
            run_derivative(field, y, idx, lo, hi, gy.reborrow().slice(t..t + seg));
        }
        if let Some(gz) = &mut gz {
            let (lo, hi) = (
                if k == 0 { 0 } else { sz },
                if k + 1 == d.nz { 0 } else { sz },
            );
            run_derivative(field, z, idx, lo, hi, gz.reborrow().slice(t..t + seg));
        }
        t += seg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_mesh::analytic::{POLYNOMIALS, SMOOTH};
    use dfg_mesh::RectilinearMesh;

    fn mesh_fields(
        mesh: &RectilinearMesh,
        f: fn(f32, f32, f32) -> f32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (x, y, z) = mesh.coord_arrays();
        let field = mesh.sample(f);
        (field, x, y, z)
    }

    #[test]
    fn unravel_round_trips() {
        let d = Dims3 {
            nx: 3,
            ny: 4,
            nz: 5,
        };
        for idx in 0..d.ncells() {
            let (i, j, k) = d.unravel(idx);
            assert_eq!(i + d.nx * (j + d.ny * k), idx);
        }
    }

    #[test]
    fn exact_on_linear_fields_including_boundaries() {
        let mesh = RectilinearMesh::uniform([6, 5, 4], [0.0; 3], [0.2, 0.3, 0.5]);
        let d = Dims3 {
            nx: 6,
            ny: 5,
            nz: 4,
        };
        for a in &POLYNOMIALS[..3] {
            let (field, x, y, z) = mesh_fields(&mesh, a.f);
            for idx in 0..d.ncells() {
                let g = gradient_at(&field, &x, &y, &z, d, idx);
                let (i, j, k) = d.unravel(idx);
                let c = mesh.cell_center(i, j, k);
                let exact = (a.grad)(c[0], c[1], c[2]);
                for dd in 0..3 {
                    assert!(
                        (g[dd] - exact[dd]).abs() < 1e-4,
                        "{} at {idx}, axis {dd}: {} vs {}",
                        a.name,
                        g[dd],
                        exact[dd]
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_bilinear_interior() {
        // x*y: central differences are exact in the interior.
        let mesh = RectilinearMesh::uniform([8, 8, 4], [0.0; 3], [0.25, 0.25, 0.25]);
        let d = Dims3 {
            nx: 8,
            ny: 8,
            nz: 4,
        };
        let a = &POLYNOMIALS[3];
        let (field, x, y, z) = mesh_fields(&mesh, a.f);
        for k in 0..4 {
            for j in 1..7 {
                for i in 1..7 {
                    let idx = i + 8 * (j + 8 * k);
                    let g = gradient_at(&field, &x, &y, &z, d, idx);
                    let c = mesh.cell_center(i, j, k);
                    let exact = (a.grad)(c[0], c[1], c[2]);
                    for dd in 0..3 {
                        assert!((g[dd] - exact[dd]).abs() < 1e-3);
                    }
                }
            }
        }
    }

    #[test]
    fn second_order_convergence_on_smooth_field() {
        // Doubling resolution should shrink interior error ~4x (allow 2.5x
        // for f32 noise).
        let err_at = |n: usize| -> f32 {
            let mesh = RectilinearMesh::uniform([n, n, n], [0.0; 3], [1.0 / n as f32; 3]);
            let d = Dims3 {
                nx: n,
                ny: n,
                nz: n,
            };
            let (field, x, y, z) = mesh_fields(&mesh, SMOOTH.f);
            let mut worst = 0.0f32;
            for k in 1..n - 1 {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        let idx = i + n * (j + n * k);
                        let g = gradient_at(&field, &x, &y, &z, d, idx);
                        let c = mesh.cell_center(i, j, k);
                        let exact = (SMOOTH.grad)(c[0], c[1], c[2]);
                        for dd in 0..3 {
                            worst = worst.max((g[dd] - exact[dd]).abs());
                        }
                    }
                }
            }
            worst
        };
        let e1 = err_at(8);
        let e2 = err_at(16);
        assert!(
            e2 < e1 / 2.5,
            "not converging at 2nd order: err(8)={e1}, err(16)={e2}"
        );
    }

    #[test]
    fn non_uniform_axes_are_respected() {
        // f = x² on a stretched axis: central difference of x² over
        // [x_{i-1}, x_{i+1}] equals (x_{i+1}² - x_{i-1}²)/(x_{i+1} - x_{i-1})
        // = x_{i+1} + x_{i-1}, compare directly.
        let xs = vec![0.0f32, 0.1, 0.3, 0.7, 1.5];
        let mesh = RectilinearMesh::with_axes(xs.clone(), vec![0.0, 1.0], vec![0.0, 1.0]);
        let d = Dims3 {
            nx: 5,
            ny: 2,
            nz: 2,
        };
        let (field, x, y, z) = mesh_fields(&mesh, |x, _, _| x * x);
        for i in 1..4 {
            let g = gradient_at(&field, &x, &y, &z, d, i);
            let expect = xs[i + 1] + xs[i - 1];
            assert!((g[0] - expect).abs() < 1e-5, "i={i}: {} vs {expect}", g[0]);
        }
    }

    #[test]
    fn degenerate_single_cell_axis_gives_zero() {
        let mesh = RectilinearMesh::unit_cube([4, 1, 4]);
        let d = Dims3 {
            nx: 4,
            ny: 1,
            nz: 4,
        };
        let (field, x, y, z) = mesh_fields(&mesh, |x, y, z| x + y + z);
        let g = gradient_at(&field, &x, &y, &z, d, 5);
        assert_eq!(g[1], 0.0, "single-cell axis derivative must be 0");
        assert!((g[0] - 1.0).abs() < 1e-4);
    }

    /// Bits no stencil computes (a NaN with a payload): what a lane of an
    /// axis that was not asked for keeps.
    const UNWRITTEN: u32 = 0x7fa5_5a5a;

    /// Every lane of [`gradient_span`], over ranges cut every `width` cells
    /// (so they start and end mid-row) and under each of the eight axis
    /// masks, against [`gradient_at`]: an axis asked for has its bits, an
    /// axis not asked for keeps [`UNWRITTEN`].
    fn assert_span_is_pointwise(dims: [usize; 3], stretched: bool, repeated: bool) {
        let d = Dims3 {
            nx: dims[0],
            ny: dims[1],
            nz: dims[2],
        };
        let axis = |n: usize| -> Vec<f32> {
            let mut c: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
            if stretched {
                c.iter_mut().for_each(|t| *t = 0.37 * *t * *t);
            }
            if repeated && n > 2 {
                c[2] = c[0]; // cell 1 differences two equal coordinates
            }
            c
        };
        let (ax, ay, az) = (axis(d.nx), axis(d.ny), axis(d.nz));
        let n = d.ncells();
        let cell = |idx: usize| d.unravel(idx);
        let x: Vec<f32> = (0..n).map(|c| ax[cell(c).0]).collect();
        let y: Vec<f32> = (0..n).map(|c| ay[cell(c).1]).collect();
        let z: Vec<f32> = (0..n).map(|c| az[cell(c).2]).collect();
        let f: Vec<f32> = (0..n)
            .map(|c| (x[c] * 1.7).sin() + y[c] * z[c] - 0.3 * c as f32)
            .collect();
        for (mask, width) in (0..8).flat_map(|mask| [1, 3, 7, 256].map(|w| (mask, w))) {
            let axes = [0, 1, 2].map(|a| mask >> a & 1 == 1);
            for base in (0..n).step_by(width) {
                let len = width.min(n - base);
                let mut g = [(); 3].map(|_| vec![f32::from_bits(UNWRITTEN); len]);
                let lanes = g.each_mut().map(|g| OutLanes::from(&mut g[..]));
                let mut asked = axes.into_iter();
                let lanes = lanes.map(|lanes| asked.next().unwrap().then_some(lanes));
                gradient_span(&f, &x, &y, &z, d, base, lanes);
                for t in 0..len {
                    let want = gradient_at(&f, &x, &y, &z, d, base + t).map(f32::to_bits);
                    let want = [0, 1, 2].map(|a| if axes[a] { want[a] } else { UNWRITTEN });
                    let got = g.each_ref().map(|g| g[t].to_bits());
                    assert_eq!(
                        got,
                        want,
                        "dims {dims:?} axes {axes:?} width {width} cell {}",
                        base + t
                    );
                }
            }
        }
    }

    #[test]
    fn span_gradient_is_the_pointwise_gradient_bit_for_bit() {
        for dims in [
            [1, 4, 3],
            [7, 1, 3],
            [5, 3, 1],
            [2, 2, 2],
            [128, 3, 3],
            [1, 1, 1],
        ] {
            for (stretched, repeated) in [(false, false), (true, false), (true, true)] {
                assert_span_is_pointwise(dims, stretched, repeated);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn span_gradient_matches_on_random_grids(
            nx in 1usize..12, ny in 1usize..7, nz in 1usize..6, shape in 0usize..4,
        ) {
            assert_span_is_pointwise([nx, ny, nz], shape & 1 == 1, shape & 2 == 2);
        }
    }

    #[test]
    #[should_panic(expected = "gradient range leaves the grid")]
    fn span_gradient_rejects_a_range_past_the_grid() {
        let d = Dims3 {
            nx: 2,
            ny: 2,
            nz: 1,
        };
        let a = [0.0f32; 8];
        let (mut gx, mut gy, mut gz) = ([0.0f32; 5], [0.0f32; 5], [0.0f32; 5]);
        let lanes = [&mut gx[..], &mut gy[..], &mut gz[..]].map(|g| Some(OutLanes::from(g)));
        gradient_span(&a, &a, &a, &a, d, 0, lanes);
    }
}
