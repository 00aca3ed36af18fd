//! # dfg — Dynamic Derived Field Generation on Many-Core Architectures
//!
//! A Rust reproduction of Harrison, Navrátil, Moussalem, Jiang & Childs,
//! *"Efficient Dynamic Derived Field Generation on Many-Core Architectures
//! Using Python"* (SC 2012).
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`mesh`] — rectilinear meshes, fields, sub-grid decomposition, the
//!   Table-I grid catalog, and the synthetic Rayleigh–Taylor workload.
//! * [`expr`] — the expression language: lexer, parser, AST, and lowering to
//!   dataflow network specifications.
//! * [`dataflow`] — dataflow networks: builder API, topological scheduling,
//!   liveness analysis, and per-strategy device-memory requirements.
//! * [`ocl`] — the simulated OpenCL device layer: platforms, devices,
//!   contexts, queues, buffers, kernels, profiling events, and the
//!   virtual-clock performance model.
//! * [`kernels`] — the shared primitive library (add … grad3d), the fused
//!   kernel generator, and hand-written reference kernels.
//! * [`core`] — execution strategies (*roundtrip*, *staged*, *fusion*), the
//!   engine, and the host interface.
//! * [`cluster`] — the simulated distributed-memory layer: ranks, ghost
//!   exchange, multi-device nodes, and the pseudocolor renderer.
//! * [`vtk`] — VTK-style datasets, legacy VTK file I/O, and the VisIt-like
//!   contract pipeline that hosts the framework in situ.
//! * [`sim`] — a miniature semi-Lagrangian flow solver: the in-situ host
//!   simulation substrate.
//! * [`trace`] — structured tracing spans with wall- and virtual-clock
//!   timestamps, Chrome `trace_event` export, and flame summaries (see
//!   `docs/OBSERVABILITY.md`).
//! * [`serve`] — the multi-tenant derived-field service: line-delimited
//!   JSON protocol, per-tenant sessions and quotas, admission control,
//!   and request coalescing (see `docs/SERVING.md`).
//!
//! ## Quickstart
//!
//! ```
//! use dfg::prelude::*;
//!
//! // Three scalar fields on a small mesh.
//! let n = 4usize * 4 * 4;
//! let mut fields = FieldSet::new(n);
//! fields.insert_scalar("u", vec![1.0; n]).unwrap();
//! fields.insert_scalar("v", vec![2.0; n]).unwrap();
//! fields.insert_scalar("w", vec![2.0; n]).unwrap();
//!
//! // Derive velocity magnitude with the fused execution strategy.
//! let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
//! let request = Request::source("v_mag = sqrt(u*u + v*v + w*w)", Strategy::Fusion);
//! let (out, report) = engine.run(&request, &fields).unwrap();
//! assert!((out[0].as_scalar().unwrap()[0] - 3.0).abs() < 1e-6);
//! // The profile reproduces Table II's fusion row: 3 writes, 1 read, 1 kernel.
//! assert_eq!(report.profile.table2_row(), (3, 1, 1));
//! ```

pub use dfg_cluster as cluster;
pub use dfg_core as core;
pub use dfg_dataflow as dataflow;
pub use dfg_expr as expr;
pub use dfg_kernels as kernels;
pub use dfg_mesh as mesh;
pub use dfg_ocl as ocl;
pub use dfg_serve as serve;
pub use dfg_sim as sim;
pub use dfg_trace as trace;
pub use dfg_vtk as vtk;

/// Convenient single-import surface for host applications.
pub mod prelude {
    pub use dfg_core::workloads::{Q_CRITERION, VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE};
    pub use dfg_core::{
        Engine, EngineOptions, Exec, ExecReport, FieldSet, FieldValue, Request, Strategy,
    };
    pub use dfg_mesh::{GridSpec, RectilinearMesh, RtWorkload, TABLE1_CATALOG};
    pub use dfg_ocl::{DeviceProfile, ExecMode};
}
