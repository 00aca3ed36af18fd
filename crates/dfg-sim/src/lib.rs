#![warn(missing_docs)]

//! A small flow solver: the *in situ* host simulation substrate.
//!
//! The paper's framework is designed for in-situ use inside a running
//! simulation (§I: *"the increasing power cost of data movement will force
//! visualization and analysis to occur in situ"*). Its host was an RT DNS
//! code we cannot ship, so this crate provides an honest miniature: a 3D
//! periodic velocity field advanced by **semi-Lagrangian advection** with
//! explicit diffusion — unconditionally stable, deterministic, and
//! producing evolving vortical structure for the derived-field expressions
//! to chase.
//!
//! Scheme per step (uniform periodic grid, cell-centered):
//!
//! 1. *Advect*: `v⁺(x) = vⁿ(x − Δt·vⁿ(x))`, trilinear interpolation with
//!    periodic wrap (each component advected as a scalar).
//! 2. *Diffuse*: one explicit 7-point Laplacian application,
//!    `v⁺⁺ = v⁺ + ν·Δt·∇²v⁺` (ν clamped for stability).
//!
//! [`FlowSimulation::fields`] exposes the live arrays exactly the way the
//! paper's host hands NumPy arrays to the framework.
//!
//! ```
//! use dfg_mesh::RtWorkload;
//! use dfg_sim::FlowSimulation;
//!
//! let mut sim = FlowSimulation::from_workload([8, 8, 8], &RtWorkload::paper_default());
//! let e0 = sim.kinetic_energy();
//! sim.viscosity = 0.02;
//! sim.step(0.01);
//! assert_eq!(sim.steps(), 1);
//! assert!(sim.kinetic_energy() < e0, "viscosity dissipates energy");
//! let fields = sim.fields();
//! assert!(fields.get("u").is_some());
//! ```

use dfg_core::FieldSet;
use dfg_mesh::{RectilinearMesh, RtWorkload};
use rayon::prelude::*;

/// A periodic 3D velocity field advanced in time.
#[derive(Debug, Clone)]
pub struct FlowSimulation {
    mesh: RectilinearMesh,
    dims: [usize; 3],
    spacing: [f32; 3],
    u: Vec<f32>,
    v: Vec<f32>,
    w: Vec<f32>,
    /// Kinematic viscosity.
    pub viscosity: f32,
    time: f32,
    steps: usize,
    /// Engine-facing field set, kept across steps so per-field generations
    /// are stable: coordinates and `dims` never change after construction,
    /// and only `u`/`v`/`w` are re-synced (bumping their generations) after
    /// a [`FlowSimulation::step`]. A persistent [`dfg_core::Session`] can
    /// therefore skip re-uploading the static fields every cycle.
    fields: FieldSet,
    fields_dirty: bool,
}

fn engine_fields(mesh: &RectilinearMesh, u: &[f32], v: &[f32], w: &[f32]) -> FieldSet {
    let mut fs = FieldSet::new(mesh.ncells());
    let (x, y, z) = mesh.coord_arrays();
    fs.insert_scalar("x", x).expect("mesh length");
    fs.insert_scalar("y", y).expect("mesh length");
    fs.insert_scalar("z", z).expect("mesh length");
    fs.insert_scalar("u", u.to_vec()).expect("state length");
    fs.insert_scalar("v", v.to_vec()).expect("state length");
    fs.insert_scalar("w", w.to_vec()).expect("state length");
    fs.insert_small("dims", mesh.dims_buffer());
    fs
}

impl FlowSimulation {
    /// Start from the synthetic RT-like workload on a unit-cube grid of
    /// `dims` cells.
    pub fn from_workload(dims: [usize; 3], workload: &RtWorkload) -> Self {
        let mesh = RectilinearMesh::unit_cube(dims);
        let (u, v, w) = workload.sample_velocity(&mesh);
        let spacing = [
            1.0 / dims[0] as f32,
            1.0 / dims[1] as f32,
            1.0 / dims[2] as f32,
        ];
        let fields = engine_fields(&mesh, &u, &v, &w);
        FlowSimulation {
            mesh,
            dims,
            spacing,
            u,
            v,
            w,
            viscosity: 1e-4,
            time: 0.0,
            steps: 0,
            fields,
            fields_dirty: false,
        }
    }

    /// Start from explicit component arrays (must match `dims`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_components(dims: [usize; 3], u: Vec<f32>, v: Vec<f32>, w: Vec<f32>) -> Self {
        let n = dims[0] * dims[1] * dims[2];
        assert_eq!(u.len(), n, "u length");
        assert_eq!(v.len(), n, "v length");
        assert_eq!(w.len(), n, "w length");
        let mesh = RectilinearMesh::unit_cube(dims);
        let spacing = [
            1.0 / dims[0] as f32,
            1.0 / dims[1] as f32,
            1.0 / dims[2] as f32,
        ];
        let fields = engine_fields(&mesh, &u, &v, &w);
        FlowSimulation {
            mesh,
            dims,
            spacing,
            u,
            v,
            w,
            viscosity: 1e-4,
            time: 0.0,
            steps: 0,
            fields,
            fields_dirty: false,
        }
    }

    /// Simulated time.
    pub fn time(&self) -> f32 {
        self.time
    }

    /// Steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The grid.
    pub fn mesh(&self) -> &RectilinearMesh {
        &self.mesh
    }

    /// Current velocity component views.
    pub fn velocity(&self) -> (&[f32], &[f32], &[f32]) {
        (&self.u, &self.v, &self.w)
    }

    /// Kinetic energy ½∑|v|² (per-cell sum; diagnostic).
    pub fn kinetic_energy(&self) -> f64 {
        let mut e = 0.0f64;
        for i in 0..self.u.len() {
            e += 0.5
                * (self.u[i] as f64 * self.u[i] as f64
                    + self.v[i] as f64 * self.v[i] as f64
                    + self.w[i] as f64 * self.w[i] as f64);
        }
        e
    }

    /// Periodic trilinear sample of a scalar field at grid-fraction
    /// coordinates (units of cells, cell-centered at integer + 0).
    fn sample_periodic(field: &[f32], dims: [usize; 3], gx: f32, gy: f32, gz: f32) -> f32 {
        let [nx, ny, nz] = dims;
        let wrap = |a: i64, n: usize| -> usize { (a.rem_euclid(n as i64)) as usize };
        let fx = gx.floor();
        let fy = gy.floor();
        let fz = gz.floor();
        let (tx, ty, tz) = (gx - fx, gy - fy, gz - fz);
        let (i0, j0, k0) = (fx as i64, fy as i64, fz as i64);
        let mut acc = 0.0f32;
        for dk in 0..2 {
            for dj in 0..2 {
                for di in 0..2 {
                    let wgt = (if di == 0 { 1.0 - tx } else { tx })
                        * (if dj == 0 { 1.0 - ty } else { ty })
                        * (if dk == 0 { 1.0 - tz } else { tz });
                    let idx = wrap(i0 + di as i64, nx)
                        + nx * (wrap(j0 + dj as i64, ny) + ny * wrap(k0 + dk as i64, nz));
                    acc += wgt * field[idx];
                }
            }
        }
        acc
    }

    /// Advance one time step of `dt`.
    pub fn step(&mut self, dt: f32) {
        let dims = self.dims;
        let [nx, ny, _] = dims;
        let sp = self.spacing;
        let (u0, v0, w0) = (self.u.clone(), self.v.clone(), self.w.clone());

        // 1. Semi-Lagrangian advection of each component.
        let advect = |out: &mut [f32], field: &[f32]| {
            out.par_chunks_mut(nx * ny)
                .enumerate()
                .for_each(|(k, slab)| {
                    for j in 0..ny {
                        for i in 0..nx {
                            let idx = i + nx * (j + ny * k);
                            // Departure point in grid-fraction coordinates.
                            let gx = i as f32 - dt * u0[idx] / sp[0];
                            let gy = j as f32 - dt * v0[idx] / sp[1];
                            let gz = k as f32 - dt * w0[idx] / sp[2];
                            slab[j * nx + i] = Self::sample_periodic(field, dims, gx, gy, gz);
                        }
                    }
                });
        };
        let mut u1 = vec![0.0f32; self.u.len()];
        let mut v1 = vec![0.0f32; self.v.len()];
        let mut w1 = vec![0.0f32; self.w.len()];
        advect(&mut u1, &u0);
        advect(&mut v1, &v0);
        advect(&mut w1, &w0);

        // 2. Explicit diffusion, stability-clamped: ν·Δt/h² ≤ 1/8 per axis.
        let h2 = sp[0].min(sp[1]).min(sp[2]).powi(2);
        let alpha = (self.viscosity * dt / h2).min(0.125);
        if alpha > 0.0 {
            let diffuse = |out: &mut [f32], field: &[f32]| {
                let [nx, ny, nz] = dims;
                out.par_chunks_mut(nx * ny)
                    .enumerate()
                    .for_each(|(k, slab)| {
                        let km = (k + nz - 1) % nz;
                        let kp = (k + 1) % nz;
                        for j in 0..ny {
                            let jm = (j + ny - 1) % ny;
                            let jp = (j + 1) % ny;
                            for i in 0..nx {
                                let im = (i + nx - 1) % nx;
                                let ip = (i + 1) % nx;
                                let at = |ii: usize, jj: usize, kk: usize| {
                                    field[ii + nx * (jj + ny * kk)]
                                };
                                let c = at(i, j, k);
                                let lap = at(im, j, k)
                                    + at(ip, j, k)
                                    + at(i, jm, k)
                                    + at(i, jp, k)
                                    + at(i, j, km)
                                    + at(i, j, kp)
                                    - 6.0 * c;
                                slab[j * nx + i] = c + alpha * lap;
                            }
                        }
                    });
            };
            let mut u2 = vec![0.0f32; u1.len()];
            let mut v2 = vec![0.0f32; v1.len()];
            let mut w2 = vec![0.0f32; w1.len()];
            diffuse(&mut u2, &u1);
            diffuse(&mut v2, &v1);
            diffuse(&mut w2, &w1);
            self.u = u2;
            self.v = v2;
            self.w = w2;
        } else {
            self.u = u1;
            self.v = v1;
            self.w = w1;
        }
        self.time += dt;
        self.steps += 1;
        self.fields_dirty = true;
    }

    /// Expose the live arrays to the derived-field framework, exactly as
    /// the paper's host hands NumPy arrays over (§III-D).
    ///
    /// The returned [`FieldSet`] is persistent: the mesh coordinates and
    /// `dims` keep their original generations forever, while `u`/`v`/`w`
    /// are re-synced in place (bumping only *their* generations) the first
    /// time this is called after a [`step`](FlowSimulation::step). Feeding
    /// the same set to a [`dfg_core::Session`] each cycle therefore
    /// re-uploads exactly the three velocity components and nothing else.
    pub fn fields(&mut self) -> &FieldSet {
        if self.fields_dirty {
            self.fields
                .update_scalar("u", &self.u)
                .expect("state length");
            self.fields
                .update_scalar("v", &self.v)
                .expect("state length");
            self.fields
                .update_scalar("w", &self.w)
                .expect("state length");
            self.fields_dirty = false;
        }
        &self.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_is_a_fixed_point() {
        let n = 8usize;
        let c = vec![0.75f32; n * n * n];
        let mut sim = FlowSimulation::from_components([n, n, n], c.clone(), c.clone(), c.clone());
        sim.viscosity = 0.0;
        for _ in 0..5 {
            sim.step(0.01);
        }
        for (i, &val) in sim.velocity().0.iter().enumerate() {
            assert!((val - 0.75).abs() < 1e-5, "u[{i}] = {val}");
        }
        assert_eq!(sim.steps(), 5);
        assert!((sim.time() - 0.05).abs() < 1e-6);
    }

    #[test]
    fn uniform_flow_translates_a_blob_periodically() {
        // Pure +x advection at one cell per step: a marked cell pattern in
        // `v` shifts right each step and wraps.
        let n = 8usize;
        let dx = 1.0 / n as f32;
        let u = vec![dx / 0.01; n * n * n]; // one cell per dt=0.01
        let mut vblob = vec![0.0f32; n * n * n];
        vblob[0] = 1.0; // cell (0,0,0)
        let mut sim = FlowSimulation::from_components([n, n, n], u, vblob, vec![0.0; n * n * n]);
        sim.viscosity = 0.0;
        sim.step(0.01);
        let v = sim.velocity().1;
        assert!(
            (v[1] - 1.0).abs() < 1e-4,
            "blob should be at x=1, v[1]={}",
            v[1]
        );
        assert!(v[0].abs() < 1e-4);
        // Seven more steps: wraps back to the origin.
        for _ in 0..7 {
            sim.step(0.01);
        }
        let v = sim.velocity().1;
        assert!((v[0] - 1.0).abs() < 1e-3, "periodic wrap, v[0]={}", v[0]);
    }

    #[test]
    fn diffusion_decays_kinetic_energy() {
        let mut sim = FlowSimulation::from_workload([12, 12, 12], &RtWorkload::paper_default());
        sim.viscosity = 0.05;
        let e0 = sim.kinetic_energy();
        for _ in 0..10 {
            sim.step(0.005);
        }
        let e1 = sim.kinetic_energy();
        assert!(e1 < e0, "energy must decay: {e0} -> {e1}");
        assert!(e1 > 0.0, "but not vanish in 10 steps");
    }

    #[test]
    fn advection_is_stable_at_large_cfl() {
        // Semi-Lagrangian stability: values stay within the initial range
        // even at CFL >> 1 (interpolation is a convex combination).
        let mut sim = FlowSimulation::from_workload([10, 10, 10], &RtWorkload::paper_default());
        sim.viscosity = 0.0;
        let max0 = sim
            .velocity()
            .0
            .iter()
            .chain(sim.velocity().1)
            .chain(sim.velocity().2)
            .fold(0.0f32, |a, &x| a.max(x.abs()));
        for _ in 0..20 {
            sim.step(0.2); // CFL ~ several cells per step
        }
        let max1 = sim
            .velocity()
            .0
            .iter()
            .chain(sim.velocity().1)
            .chain(sim.velocity().2)
            .fold(0.0f32, |a, &x| a.max(x.abs()));
        assert!(max1 <= max0 * 1.0001, "no overshoot: {max0} -> {max1}");
        assert!(max1.is_finite());
    }

    #[test]
    fn fields_are_engine_ready() {
        use dfg_core::{Engine, Request, Strategy};
        use dfg_ocl::DeviceProfile;
        let mut sim = FlowSimulation::from_workload([8, 8, 8], &RtWorkload::paper_default());
        sim.step(0.01);
        let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
        let fields = sim.fields().clone();
        let request = Request::source(
            "w_mag = norm(curl(u, v, w, dims, x, y, z))",
            Strategy::Fusion,
        );
        let (out, _) = engine
            .run(&request, &fields)
            .expect("in-situ derive from live state");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn field_generations_are_stable_across_steps() {
        let mut sim = FlowSimulation::from_workload([6, 6, 6], &RtWorkload::paper_default());
        let before: Vec<u64> = ["x", "y", "z", "dims", "u"]
            .iter()
            .map(|n| sim.fields().get(n).expect("present").generation())
            .collect();
        sim.step(0.01);
        sim.step(0.01);
        let u_live = sim.velocity().0.to_vec();
        let fields = sim.fields();
        // Static fields keep their generations; velocities were bumped.
        for (i, name) in ["x", "y", "z", "dims"].iter().enumerate() {
            assert_eq!(
                fields.get(name).expect("present").generation(),
                before[i],
                "{name} must not be re-touched by stepping"
            );
        }
        assert!(fields.get("u").expect("present").generation() > before[4]);
        // The synced arrays really are the live state.
        assert_eq!(
            fields.get("u").expect("present").data.as_deref(),
            Some(u_live.as_slice())
        );
    }
}
