#![warn(missing_docs)]

//! A simulated OpenCL device layer.
//!
//! The paper executes derived-field kernels through PyOpenCL on two OpenCL
//! platforms (an Intel Westmere CPU and an NVIDIA Tesla M2050 GPU). This
//! crate substitutes a *simulated* device layer that preserves everything the
//! paper's evaluation measures:
//!
//! * the **buffer/kernel protocol**: explicit host→device writes,
//!   device→host reads, kernel launches, and buffer lifetimes — so
//!   device-event counts (Table II) are exact;
//! * **device global-memory accounting** with a capacity limit and an
//!   allocation high-water mark — so the memory study (Figure 6) and the
//!   GPU out-of-memory failures are exact;
//! * a **virtual-clock performance model** per device profile — transfer
//!   times from PCIe/memcpy bandwidth plus latency, kernel times from
//!   max(memory-bound, compute-bound) plus launch overhead — so runtime
//!   curves (Figure 5) reproduce the paper's shape deterministically;
//! * **real parallel execution**: in [`ExecMode::Real`] kernels actually run
//!   on the host's cores (the kernel implementations in `dfg-kernels` use
//!   rayon), so results are real data and wall-clock benchmarks are
//!   meaningful. [`ExecMode::Model`] is the same context with no storage
//!   behind its buffers, letting paper-scale (multi-gigabyte)
//!   configurations be *modeled* without allocating paper-scale memory.
//!
//! The API follows OpenCL's shape: a [`Context`] owns buffers and in-order
//! profiling command queues; [`DeviceKernel`] is the trait kernels implement
//! (the analogue of a compiled `cl_kernel`).
//!
//! There is one write ([`Context::enqueue_write_q`]), one ranged read
//! ([`Context::enqueue_read_range_q`]) and one launch
//! ([`Context::launch_q`]); the un-suffixed whole-buffer forms are the same
//! bodies on the default queue, and a buffer's last read
//! ([`Context::read_and_release`]) is a whole-buffer read and a release,
//! which may hand the buffer's storage to the host instead of copying it. The mode is a property of the context's
//! storage, not of the function a caller picks: the host end of a transfer
//! is a [`HostEnd`] — a lane count, plus the bytes when the host has them —
//! and a modeling run makes the same calls with nothing behind either end.
//!
//! ```
//! use dfg_ocl::{Context, DeviceProfile, EventKind, ExecMode};
//!
//! let mut ctx = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Real);
//! let buf = ctx.create_buffer(1024).unwrap();
//! ctx.enqueue_write(buf, &[1.0; 1024]).unwrap();
//! let back = ctx.enqueue_read(buf).unwrap();
//! assert_eq!(back[0], 1.0);
//! let report = ctx.report();
//! assert_eq!(report.count(EventKind::HostToDevice), 1);
//! assert_eq!(report.high_water_bytes, 4096);
//! assert!(report.device_seconds() > 0.0);
//! ```

mod context;
mod error;
mod event;
mod export;
mod fault;
mod host;
pub mod integrity;
mod profile;

pub use context::{
    AllocMark, BufferId, Context, DeviceKernel, EventToken, KernelArgs, KernelCost, Placement,
    QueueId,
};
pub use error::{OclError, TransferDir};
pub use event::{Event, EventKind, ProfileReport};
pub use fault::{Fault, FaultKind, FaultPlan, RankFate};
pub use host::{interleave, HostEnd, SharedArray, UploadSource};
pub use integrity::{IntegrityKind, IntegrityStats, VerifyPolicy};
pub use profile::{DeviceKind, DeviceProfile};

/// Execution mode for a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Buffers hold real data and kernels execute on the host's cores.
    Real,
    /// Model issues the identical calls; buffers are accounted, never
    /// backed, and kernel bodies are skipped. Every check, fault-plan draw
    /// and event is the code `Real` runs, so event streams, memory
    /// high-water marks, and the virtual clock are identical. Used for
    /// paper-scale modeling runs.
    Model,
}
