#![warn(missing_docs)]

//! The derived-field generation engine: execution strategies and host
//! interface.
//!
//! This crate ties the framework together, mirroring the paper's
//! architecture (Figure 1): the host application hands an expression string
//! and its input field arrays to [`Engine::derive`]; the expression is
//! parsed and lowered to a dataflow network (`dfg-expr`), scheduled
//! (`dfg-dataflow`), and executed on a simulated OpenCL device (`dfg-ocl`)
//! under one of three [`Strategy`] values using the shared kernel library
//! (`dfg-kernels`). The derived field and a categorized device-event profile
//! come back to the host.
//!
//! There is one execution core. Every entry point — [`Engine::derive`],
//! `derive_many`, `derive_spec`, `derive_streamed`, and their [`Session`]
//! equivalents — resolves its outputs to root nodes and hands them to
//! `Engine::execute`, which plans once and calls the recovery driver; the
//! driver is the only caller of the strategy executors, one function per
//! strategy (roundtrip, staged, fusion, streamed). Single-output is
//! multi-output with one root; a disabled [`RecoveryPolicy`] is recovery
//! with nothing to do; one-shot is the session path with no session state
//! and a fresh unpooled context.
//!
//! The executors implement exactly the data-movement protocols of §III-C;
//! their device-event counts reproduce the paper's Table II and their
//! allocation high-water marks agree with the analytical model in
//! `dfg_dataflow::memreq` (asserted in this crate's tests).

mod cancel;
mod engine;
mod error;
mod fields;
pub mod planner;
pub(crate) mod recovery;
mod registry;
mod session;
mod strategies;
pub mod workloads;

#[cfg(test)]
mod tests;
// The conformance harness names the crate as its suites under `tests/` do.
#[cfg(test)]
extern crate self as dfg_core;

pub use cancel::CancelToken;
pub use dfg_dataflow::{OptLevel, OptStats, Strategy};
pub use dfg_ocl::SharedArray;
pub use engine::{Engine, EngineOptions, ExecReport};
pub use error::EngineError;
pub use fields::{Field, FieldSet, FieldValue};
pub use planner::{plan, plan_opt, plan_traced, Plan, PlanOption};
pub use recovery::{AttemptOutcome, AttemptRecord, ExecLevel, RecoveryPolicy, RecoveryReport};
pub use registry::{SessionRegistry, TenantStats};
pub use session::{Session, SessionStats};
pub use workloads::Workload;
