#![warn(missing_docs)]

//! Dataflow networks for derived field generation.
//!
//! This crate implements the middle layer of the framework described in
//! Harrison et al. (SC 2012), §III-B: *"Dataflow networks create 'pipelines'
//! made up of 'sources', 'sinks' and 'filters' to carry out a desired
//! operation."*
//!
//! A [`NetworkSpec`] is an acyclic graph of [`FilterNode`]s. Source nodes are
//! host-provided input fields ([`FilterOp::Input`]) and constants
//! ([`FilterOp::Const`]); every other node is a filter drawn from the shared
//! primitive library. The network's single sink is [`NetworkSpec::result`].
//! The scalar primitives ([`BinKind`], [`UnKind`]) are defined here once —
//! metadata *and* arithmetic — and every other layer (optimizer, kernel
//! library, front end, CLI) reads that table.
//!
//! The crate provides:
//!
//! * a **"create and connect"** builder API ([`NetworkBuilder`]) mirroring
//!   the paper's network definition API (§III-B.1);
//! * **network initialization** ([`Schedule`]): topological ordering with
//!   cycle detection, consumer reference counts, and buffer free points
//!   (§III-B.2: *"uses a topological sort to ensure proper precedence … It
//!   provides reference counting and reuses intermediate results"*);
//! * **per-strategy device memory requirement analysis** ([`memreq_units`]),
//!   reproducing the accounting of the paper's Figure 2;
//! * a **script emitter** ([`NetworkSpec::to_script`]) corresponding to the
//!   paper's optional generated Python script that "outlines all API calls".
//!
//! ```
//! use dfg_dataflow::{memreq_units, BinKind, NetworkBuilder, Schedule, Strategy, UnKind};
//!
//! // speed2d = sqrt(u*u + v*v), built through the create-and-connect API.
//! let mut b = NetworkBuilder::new();
//! let u = b.input("u");
//! let v = b.input("v");
//! let uu = b.binary(BinKind::Mul, u, u);
//! let vv = b.binary(BinKind::Mul, v, v);
//! let sum = b.binary(BinKind::Add, uu, vv);
//! let out = b.unary(UnKind::Sqrt, sum);
//! let spec = b.finish(out);
//!
//! let sched = Schedule::new(&spec).unwrap();
//! assert_eq!(sched.len(), 6);
//! // Fusion needs u, v and the output resident: 3 problem-sized arrays.
//! assert_eq!(memreq_units(&spec, Strategy::Fusion).unwrap().units, 3);
//! ```

mod builder;
mod memreq;
mod op;
pub mod optimize;
mod schedule;
mod script;
mod spec;

pub mod example_networks;

pub use builder::NetworkBuilder;
pub use memreq::{memreq_bytes, memreq_units, MemReport};
pub use op::{select, Arity, BinKind, FilterOp, UnKind, Width};
pub use optimize::{
    canonical_hash, eval_scalar, optimize, optimize_traced, OptLevel, OptStats, Optimized,
};
pub use schedule::{Schedule, ScheduleError};
pub use spec::{FilterNode, NetworkError, NetworkSpec, NodeId};

/// Execution strategies from §III-C of the paper.
///
/// The strategy controls data movement between the OpenCL host and target
/// device and how the primitive kernels are composed; the primitives
/// themselves are written once and shared by all strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One kernel per filter; every kernel input is uploaded from the host
    /// and every kernel output downloaded back. Least device memory,
    /// most traffic (§III-C.1).
    Roundtrip,
    /// One kernel per filter; intermediates stay resident in device global
    /// memory under reference counting; one final download (§III-C.2).
    Staged,
    /// The whole network is fused into a single dynamically generated
    /// kernel; intermediates live in registers; constants are compiled into
    /// the kernel source (§III-C.3).
    Fusion,
}

impl Strategy {
    /// All three strategies, in the paper's order.
    pub const ALL: [Strategy; 3] = [Strategy::Roundtrip, Strategy::Staged, Strategy::Fusion];

    /// Lower-case name used in reports and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Roundtrip => "roundtrip",
            Strategy::Staged => "staged",
            Strategy::Fusion => "fusion",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
