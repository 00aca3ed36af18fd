#![warn(missing_docs)]

//! The shared derived-field kernel library.
//!
//! Three layers, mirroring §III-B.3 and §III-C of the paper:
//!
//! * [`primitives`] — the building-block library: one standalone device
//!   kernel per dataflow filter (add … grad3d), written once and used by the
//!   *roundtrip* and *staged* strategies unchanged; the scalar kinds'
//!   arithmetic, names and flops are `dfg-dataflow`'s operation table
//!   ([`BinKind`], [`UnKind`]), which this library executes rather than
//!   restates;
//! * [`fused`] — the dynamic kernel generator: compiles an entire dataflow
//!   network into a single register program ([`FusedProgram`]) executed as
//!   one kernel launch by the *fusion* strategy, and renders the equivalent
//!   OpenCL C source for inspection;
//! * [`mod@reference`] — hand-written single-kernel implementations of the three
//!   evaluation expressions, the paper's upper-bound comparator.
//!
//! [`grad`] holds the one shared gradient stencil all of the above call.
//!
//! ```
//! let spec = dfg_expr::compile("r = a * a + 0.5").unwrap();
//! let program = dfg_kernels::fuse(&spec).unwrap();
//! let source = program.generated_source("example");
//! assert!(source.contains("__kernel void example("));
//! assert!(source.contains("0.5f"), "constants are compiled into source");
//! ```

pub mod fused;
pub mod grad;
pub mod primitives;
pub mod reference;

/// The scalar kinds, defined once in `dfg-dataflow`'s operation table.
pub use dfg_dataflow::{BinKind, UnKind};
pub use fused::{
    fuse, fuse_roots, FuseError, FusedKernel, FusedProgram, InputSlot, OutputSlot, MAX_REGS,
};
pub use grad::{gradient_at, gradient_span, Dims3};
pub use primitives::{Primitive, GRAD3D_OPENCL_SOURCE};
pub use reference::{QCritRef, VelMagRef, VortMagRef};
