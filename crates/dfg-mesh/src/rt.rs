//! Synthetic Rayleigh–Taylor-like workload.
//!
//! Substitution (see DESIGN.md): the paper uses a proprietary 3072³ RT DNS
//! dataset; we generate a deterministic analytic velocity field with the
//! properties the evaluation needs — vortical structure (non-zero curl and
//! Q-criterion), multi-scale modes, and *pointwise determinism in global
//! coordinates* so distributed sub-grids generate identical data
//! independently.
//!
//! The field is a superposition of Taylor–Green-style vortex modes plus an
//! RT-flavoured bubble/spike updraft term:
//!
//! ```text
//! u = Σ_m  a_m ·  sin(kx x + φ) cos(ky y + ψ) cos(kz z + χ)
//! v = Σ_m -a_m ·  cos(kx x + φ) sin(ky y + ψ) cos(kz z + χ) · kx/ky
//! w = Σ_m  b_m ·  cos(kx x + φ) cos(ky y + ψ) sin(kz z + χ)
//!     + c · cos(2π x / L) · cos(2π y / L)        (RT plume)
//! ```
//!
//! Each mode is individually divergence-reduced (the u/v pair cancels), so
//! the field qualitatively resembles incompressible turbulence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::mesh::RectilinearMesh;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Mode {
    kx: f32,
    ky: f32,
    kz: f32,
    a: f32,
    b: f32,
    phase: [f32; 3],
}

/// A deterministic synthetic stand-in for the paper's RT velocity field.
#[derive(Debug, Clone, PartialEq)]
pub struct RtWorkload {
    modes: Vec<Mode>,
    plume_amp: f32,
    plume_k: f32,
}

impl RtWorkload {
    /// Build a workload with `nmodes` vortex modes from a fixed seed.
    pub fn new(seed: u64, nmodes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tau = std::f32::consts::TAU;
        let modes = (0..nmodes)
            .map(|m| {
                // Wavenumbers grow with mode index: multi-scale structure.
                let base = tau * (1.0 + m as f32);
                let mut jitter = [0.0f32; 3];
                for j in &mut jitter {
                    *j = 1.0 + 0.3 * (rng.gen::<f32>() - 0.5);
                }
                let amp = 1.0 / (1.0 + m as f32); // decaying spectrum
                Mode {
                    kx: base * jitter[0],
                    ky: base * jitter[1],
                    kz: base * jitter[2],
                    a: amp * (0.5 + rng.gen::<f32>()),
                    b: 0.6 * amp * (0.5 + rng.gen::<f32>()),
                    phase: [
                        tau * rng.gen::<f32>(),
                        tau * rng.gen::<f32>(),
                        tau * rng.gen::<f32>(),
                    ],
                }
            })
            .collect();
        RtWorkload {
            modes,
            plume_amp: 0.8,
            plume_k: tau,
        }
    }

    /// The default evaluation workload (seed and mode count used throughout
    /// the benchmark harness).
    pub fn paper_default() -> Self {
        Self::new(0x005C_2012, 4)
    }

    /// Velocity at a global coordinate.
    pub fn velocity_at(&self, x: f32, y: f32, z: f32) -> [f32; 3] {
        let mut u = 0.0f32;
        let mut v = 0.0f32;
        let mut w = 0.0f32;
        for m in &self.modes {
            let sx = (m.kx * x + m.phase[0]).sin();
            let cx = (m.kx * x + m.phase[0]).cos();
            let sy = (m.ky * y + m.phase[1]).sin();
            let cy = (m.ky * y + m.phase[1]).cos();
            let sz = (m.kz * z + m.phase[2]).sin();
            let cz = (m.kz * z + m.phase[2]).cos();
            u += m.a * sx * cy * cz;
            v -= m.a * (m.kx / m.ky) * cx * sy * cz;
            w += m.b * cx * cy * sz;
        }
        w += self.plume_amp * (self.plume_k * x).cos() * (self.plume_k * y).cos();
        [u, v, w]
    }

    /// Sample the three velocity components over a mesh, in parallel.
    /// Returns `(u, v, w)` flattened in the mesh's x-major order.
    ///
    /// Bit-identical to [`velocity_at`](Self::velocity_at) at every cell
    /// centre: each term is `coef · f(x) · g(y) · h(z)`, so the factors are
    /// tabulated once per axis and the rows accumulate them in
    /// `velocity_at`'s own order.
    pub fn sample_velocity(&self, mesh: &RectilinearMesh) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let [nx, ny, _] = mesh.dims();
        let n = mesh.ncells();
        let slab = nx * ny;
        let (xs, ys, zs) = (mesh.axis(0), mesh.axis(1), mesh.axis(2));
        let tables: Vec<ModeTables> = self.modes.iter().map(|m| m.tables(xs, ys, zs)).collect();
        let px = along(xs, |x| self.plume_amp * (self.plume_k * x).cos());
        let py = along(ys, |y| (self.plume_k * y).cos());
        let mut u = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        let mut w = vec![0.0f32; n];
        u.par_chunks_mut(slab)
            .zip(v.par_chunks_mut(slab))
            .zip(w.par_chunks_mut(slab))
            .enumerate()
            .for_each(|(k, ((us, vs), ws))| {
                let rows = us
                    .chunks_mut(nx)
                    .zip(vs.chunks_mut(nx))
                    .zip(ws.chunks_mut(nx));
                for (j, ((ur, vr), wr)) in rows.enumerate() {
                    for t in &tables {
                        let (sy, cy, sz, cz) = (t.sy[j], t.cy[j], t.sz[k], t.cz[k]);
                        for (u, &a) in ur.iter_mut().zip(&t.ux) {
                            *u += a * cy * cz;
                        }
                        for (v, &a) in vr.iter_mut().zip(&t.vx) {
                            *v -= a * sy * cz;
                        }
                        for (w, &a) in wr.iter_mut().zip(&t.wx) {
                            *w += a * cy * sz;
                        }
                    }
                    for (w, &p) in wr.iter_mut().zip(&px) {
                        *w += p * py[j];
                    }
                }
            });
        (u, v, w)
    }
}

/// `f` at every coordinate of one axis.
fn along(coords: &[f32], f: impl Fn(f32) -> f32) -> Vec<f32> {
    coords.iter().map(|&c| f(c)).collect()
}

/// One mode's factors along each axis of a mesh. An entry is the value
/// `velocity_at` computes, from the same `f32` expression; the x tables
/// carry the coefficient that its left-to-right products multiply first.
struct ModeTables {
    ux: Vec<f32>,
    vx: Vec<f32>,
    wx: Vec<f32>,
    sy: Vec<f32>,
    cy: Vec<f32>,
    sz: Vec<f32>,
    cz: Vec<f32>,
}

impl Mode {
    fn tables(&self, xs: &[f32], ys: &[f32], zs: &[f32]) -> ModeTables {
        ModeTables {
            ux: along(xs, |x| self.a * (self.kx * x + self.phase[0]).sin()),
            vx: along(xs, |x| {
                self.a * (self.kx / self.ky) * (self.kx * x + self.phase[0]).cos()
            }),
            wx: along(xs, |x| self.b * (self.kx * x + self.phase[0]).cos()),
            sy: along(ys, |y| (self.ky * y + self.phase[1]).sin()),
            cy: along(ys, |y| (self.ky * y + self.phase[1]).cos()),
            sz: along(zs, |z| (self.kz * z + self.phase[2]).sin()),
            cz: along(zs, |z| (self.kz * z + self.phase[2]).cos()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = RtWorkload::new(7, 3);
        let b = RtWorkload::new(7, 3);
        assert_eq!(a.velocity_at(0.3, 0.7, 0.1), b.velocity_at(0.3, 0.7, 0.1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = RtWorkload::new(1, 3);
        let b = RtWorkload::new(2, 3);
        assert_ne!(a.velocity_at(0.5, 0.5, 0.5), b.velocity_at(0.5, 0.5, 0.5));
    }

    #[test]
    fn subgrid_sampling_matches_global_sampling() {
        // The property the distributed test depends on: sampling a submesh
        // equals slicing a global sample.
        let wl = RtWorkload::paper_default();
        let global = RectilinearMesh::unit_cube([8, 8, 8]);
        let (gu, _, _) = wl.sample_velocity(&global);
        let sub = global.submesh([2, 3, 4], [4, 2, 3]);
        let (su, _, _) = wl.sample_velocity(&sub);
        for k in 0..3 {
            for j in 0..2 {
                for i in 0..4 {
                    let g = gu[global.index(2 + i, 3 + j, 4 + k)];
                    let s = su[sub.index(i, j, k)];
                    assert_eq!(g, s, "mismatch at ({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn field_has_vorticity() {
        // Central difference of w along y minus v along z must be non-zero
        // somewhere: the workload must exercise the vortex detectors.
        let wl = RtWorkload::paper_default();
        let eps = 1e-3f32;
        let dwdy = (wl.velocity_at(0.3, 0.4 + eps, 0.5)[2]
            - wl.velocity_at(0.3, 0.4 - eps, 0.5)[2])
            / (2.0 * eps);
        let dvdz = (wl.velocity_at(0.3, 0.4, 0.5 + eps)[1]
            - wl.velocity_at(0.3, 0.4, 0.5 - eps)[1])
            / (2.0 * eps);
        assert!(
            (dwdy - dvdz).abs() > 1e-3,
            "curl_x ~ 0: field is irrotational"
        );
    }

    #[test]
    fn velocity_magnitudes_are_order_one() {
        let wl = RtWorkload::paper_default();
        let m = RectilinearMesh::unit_cube([16, 16, 16]);
        let (u, v, w) = wl.sample_velocity(&m);
        let max = u
            .iter()
            .chain(&v)
            .chain(&w)
            .fold(0.0f32, |acc, &x| acc.max(x.abs()));
        assert!(max > 0.1 && max < 100.0, "max |component| = {max}");
    }
}
