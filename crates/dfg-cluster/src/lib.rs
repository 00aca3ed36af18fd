#![warn(missing_docs)]

//! Simulated distributed-memory execution (§IV-D.3 / §V-C).
//!
//! The paper's final study runs the framework inside VisIt across 128
//! cluster nodes × 2 GPUs, processing the 3072 sub-grids of a 3072³ mesh
//! with ghost ("halo") cells exchanged between neighbouring sub-grids. This
//! crate reproduces that structure without MPI or a real cluster:
//!
//! * an MPI *rank* is a thread owning its own simulated device
//!   ([`Cluster`] describes the node/device topology; one node driving N
//!   devices, the paper's §VI future work, is `nodes: 1`);
//! * ghost data is produced by a real **message-passing halo exchange**
//!   over `std::sync::mpsc` channels — each rank samples only the cells it owns
//!   and receives boundary stencils from neighbours, exactly as VisIt's
//!   ghost-data generation provides them;
//! * each rank embeds a `dfg_core::Engine` and processes its assigned
//!   sub-grids one after another (the paper's 12 sub-grids per GPU);
//! * a small pseudocolor renderer ([`render`]) writes PPM images standing in
//!   for the paper's Figure 7 rendering.
//!
//! Because the synthetic workload is deterministic in global coordinates,
//! the distributed result can be asserted *bit-identical* to a single-grid
//! computation — a stronger validation than the paper's visual check.

mod exchange;
pub mod render;
mod runner;

pub use exchange::ExchangeError;
pub use runner::{
    run_distributed, run_distributed_traced, Cluster, ClusterError, DistOptions, DistResult,
    RankAttempt, RankOutcome,
};
