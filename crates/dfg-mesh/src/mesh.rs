//! 3D rectilinear meshes with cell-centered fields.

use rayon::prelude::*;

/// A 3D rectilinear mesh described by per-axis cell-center coordinates.
///
/// Cells are indexed `(i, j, k)` with `i` fastest (x-major linearization
/// `idx = i + nx*(j + ny*k)`), matching the layout the gradient primitive
/// assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RectilinearMesh {
    axes: [Vec<f32>; 3],
}

impl RectilinearMesh {
    /// Uniform mesh: `dims` cells per axis, cell centers at
    /// `origin + (i + 0.5) * spacing`.
    pub fn uniform(dims: [usize; 3], origin: [f32; 3], spacing: [f32; 3]) -> Self {
        let axis = |n: usize, o: f32, s: f32| -> Vec<f32> {
            (0..n).map(|i| o + (i as f32 + 0.5) * s).collect()
        };
        RectilinearMesh {
            axes: [
                axis(dims[0], origin[0], spacing[0]),
                axis(dims[1], origin[1], spacing[1]),
                axis(dims[2], origin[2], spacing[2]),
            ],
        }
    }

    /// Uniform mesh over the unit cube `[0,1]³`.
    pub fn unit_cube(dims: [usize; 3]) -> Self {
        let spacing = [
            1.0 / dims[0] as f32,
            1.0 / dims[1] as f32,
            1.0 / dims[2] as f32,
        ];
        Self::uniform(dims, [0.0; 3], spacing)
    }

    /// Mesh with explicit (possibly stretched) per-axis cell-center arrays.
    ///
    /// # Panics
    /// Panics if any axis is empty or not strictly increasing.
    pub fn with_axes(xs: Vec<f32>, ys: Vec<f32>, zs: Vec<f32>) -> Self {
        for (name, axis) in [("x", &xs), ("y", &ys), ("z", &zs)] {
            assert!(!axis.is_empty(), "{name} axis must be non-empty");
            assert!(
                axis.windows(2).all(|w| w[0] < w[1]),
                "{name} axis must be strictly increasing"
            );
        }
        RectilinearMesh { axes: [xs, ys, zs] }
    }

    /// Cells per axis.
    pub fn dims(&self) -> [usize; 3] {
        [self.axes[0].len(), self.axes[1].len(), self.axes[2].len()]
    }

    /// Total cell count.
    pub fn ncells(&self) -> usize {
        self.axes[0].len() * self.axes[1].len() * self.axes[2].len()
    }

    /// Per-axis cell-center coordinates.
    pub fn axis(&self, d: usize) -> &[f32] {
        &self.axes[d]
    }

    /// Linear index of cell `(i, j, k)`.
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        let [nx, ny, _] = self.dims();
        i + nx * (j + ny * k)
    }

    /// Cell-center coordinates of cell `(i, j, k)`.
    pub fn cell_center(&self, i: usize, j: usize, k: usize) -> [f32; 3] {
        [self.axes[0][i], self.axes[1][j], self.axes[2][k]]
    }

    /// The flattened problem-sized coordinate arrays `(x, y, z)` the
    /// expression framework consumes (one value per cell, x-major order).
    pub fn coord_arrays(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let [nx, ny, _] = self.dims();
        let n = self.ncells();
        let mut x = vec![0.0f32; n];
        let mut y = vec![0.0f32; n];
        let mut z = vec![0.0f32; n];
        // Parallelize over z-slabs: each slab is a contiguous region.
        let slab = nx * ny;
        x.par_chunks_mut(slab)
            .zip(y.par_chunks_mut(slab))
            .zip(z.par_chunks_mut(slab))
            .enumerate()
            .for_each(|(k, ((xs, ys), zs))| {
                zs.fill(self.axes[2][k]);
                for (j, (xr, yr)) in xs.chunks_mut(nx).zip(ys.chunks_mut(nx)).enumerate() {
                    xr.copy_from_slice(&self.axes[0]);
                    yr.fill(self.axes[1][j]);
                }
            });
        (x, y, z)
    }

    /// Evaluate `f(x, y, z)` at every cell center, in parallel.
    pub fn sample(&self, f: impl Fn(f32, f32, f32) -> f32 + Sync) -> Vec<f32> {
        let [nx, ny, _] = self.dims();
        let slab = nx * ny;
        let mut out = vec![0.0f32; self.ncells()];
        out.par_chunks_mut(slab).enumerate().for_each(|(k, chunk)| {
            let zk = self.axes[2][k];
            for j in 0..ny {
                let yj = self.axes[1][j];
                for i in 0..nx {
                    chunk[j * nx + i] = f(self.axes[0][i], yj, zk);
                }
            }
        });
        out
    }

    /// Extract the sub-mesh covering `dims` cells starting at `offset`.
    ///
    /// # Panics
    /// Panics if the window exceeds the mesh extents.
    pub fn submesh(&self, offset: [usize; 3], dims: [usize; 3]) -> RectilinearMesh {
        let take = |d: usize| -> Vec<f32> {
            assert!(
                offset[d] + dims[d] <= self.axes[d].len(),
                "submesh window exceeds axis {d}"
            );
            self.axes[d][offset[d]..offset[d] + dims[d]].to_vec()
        };
        RectilinearMesh {
            axes: [take(0), take(1), take(2)],
        }
    }

    /// The `dims` auxiliary input as an f32 triple (the small `dims` buffer
    /// passed to `grad3d`).
    pub fn dims_buffer(&self) -> Vec<f32> {
        let [nx, ny, nz] = self.dims();
        vec![nx as f32, ny as f32, nz as f32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cell_centers() {
        let m = RectilinearMesh::uniform([4, 2, 2], [0.0; 3], [0.5, 1.0, 2.0]);
        assert_eq!(m.dims(), [4, 2, 2]);
        assert_eq!(m.ncells(), 16);
        assert_eq!(m.cell_center(0, 0, 0), [0.25, 0.5, 1.0]);
        assert_eq!(m.cell_center(3, 1, 1), [1.75, 1.5, 3.0]);
    }

    #[test]
    fn linear_index_is_x_major() {
        let m = RectilinearMesh::unit_cube([3, 4, 5]);
        assert_eq!(m.index(0, 0, 0), 0);
        assert_eq!(m.index(1, 0, 0), 1);
        assert_eq!(m.index(0, 1, 0), 3);
        assert_eq!(m.index(0, 0, 1), 12);
        assert_eq!(m.index(2, 3, 4), 3 * 4 * 5 - 1);
    }

    #[test]
    fn coord_arrays_match_cell_centers() {
        let m = RectilinearMesh::uniform([3, 2, 2], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]);
        let (x, y, z) = m.coord_arrays();
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..3 {
                    let idx = m.index(i, j, k);
                    let c = m.cell_center(i, j, k);
                    assert_eq!([x[idx], y[idx], z[idx]], c);
                }
            }
        }
    }

    #[test]
    fn sample_evaluates_at_centers() {
        let m = RectilinearMesh::unit_cube([4, 4, 4]);
        let f = m.sample(|x, y, z| x + 10.0 * y + 100.0 * z);
        let c = m.cell_center(2, 1, 3);
        assert!((f[m.index(2, 1, 3)] - (c[0] + 10.0 * c[1] + 100.0 * c[2])).abs() < 1e-6);
    }

    #[test]
    fn submesh_slices_axes() {
        let m = RectilinearMesh::unit_cube([8, 8, 8]);
        let s = m.submesh([2, 0, 4], [3, 8, 4]);
        assert_eq!(s.dims(), [3, 8, 4]);
        assert_eq!(s.cell_center(0, 0, 0), m.cell_center(2, 0, 4));
        assert_eq!(s.cell_center(2, 7, 3), m.cell_center(4, 7, 7));
    }

    #[test]
    #[should_panic(expected = "submesh window exceeds")]
    fn submesh_bounds_checked() {
        RectilinearMesh::unit_cube([4, 4, 4]).submesh([2, 0, 0], [3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn with_axes_rejects_non_monotone() {
        RectilinearMesh::with_axes(vec![0.0, 0.0], vec![0.0], vec![0.0]);
    }

    #[test]
    fn stretched_axes_are_preserved() {
        let m = RectilinearMesh::with_axes(vec![0.0, 1.0, 4.0], vec![0.0, 2.0], vec![0.0, 1.0]);
        assert_eq!(m.axis(0), &[0.0, 1.0, 4.0]);
        assert_eq!(m.dims(), [3, 2, 2]);
    }

    #[test]
    fn dims_buffer_round_trips() {
        let m = RectilinearMesh::unit_cube([192, 192, 256]);
        assert_eq!(m.dims_buffer(), vec![192.0, 192.0, 256.0]);
    }
}
