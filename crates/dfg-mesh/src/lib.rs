#![warn(missing_docs)]

//! Rectilinear meshes, fields, decomposition and workloads.
//!
//! The paper evaluates on sub-grids of a 3072³ Rayleigh–Taylor DNS run from
//! LLNL (§IV-B). That dataset is proprietary, so this crate provides:
//!
//! * [`RectilinearMesh`] — 3D rectilinear meshes with per-axis cell-center
//!   coordinate arrays (uniform or stretched), producing the flattened
//!   problem-sized `x`, `y`, `z` arrays the expressions consume;
//! * [`TABLE1_CATALOG`] / [`GridSpec`] — the paper's Table I sub-grid
//!   catalog (192×192×256 … 192×192×3072);
//! * [`RtWorkload`] — a deterministic synthetic velocity field with
//!   vortical structure standing in for the RT dataset. It is defined as an
//!   analytic function of *global* coordinates, so any sub-grid of the
//!   global mesh generates bit-identical data independently — which makes
//!   the distributed ghost-exchange evaluation exactly verifiable. The
//!   field is separable: bulk sampling multiplies per-axis tables,
//!   bit-identical to `velocity_at`, instead of calling libm per cell;
//! * [`decomp`] — block decomposition with ghost (halo) layers, mirroring
//!   VisIt's ghost-data generation that the paper's distributed test relies
//!   on;
//! * [`analytic`] — closed-form fields (with exact gradients and curl) used
//!   to verify the `grad3d` primitive, something the paper's real dataset
//!   could not offer.

pub mod analytic;
mod catalog;
pub mod decomp;
mod mesh;
mod rt;

pub use catalog::{GridSpec, TABLE1_CATALOG};
pub use decomp::{partition_blocks, SubGrid};
pub use mesh::RectilinearMesh;
pub use rt::RtWorkload;
