//! Engine errors.

use dfg_dataflow::ScheduleError;
use dfg_expr::FrontendError;
use dfg_kernels::FuseError;
use dfg_ocl::OclError;

/// Failures from [`crate::Engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Parsing or lowering the expression failed.
    Frontend(FrontendError),
    /// Scheduling the network failed.
    Schedule(ScheduleError),
    /// The device layer failed (including GPU out-of-memory — the paper's
    /// gray "failed" series).
    Ocl(OclError),
    /// Kernel fusion failed (the fusion strategy only).
    Fuse(FuseError),
    /// The host did not provide a required input field.
    MissingField {
        /// The missing field's name.
        name: String,
    },
    /// A requested output name is not assigned anywhere in the program
    /// (multi-output derivation).
    NoSuchOutput {
        /// The requested output name.
        name: String,
    },
    /// A streamed request named roots other than the program's natural
    /// result, the one root streamed fusion computes.
    StreamedRoots,
    /// A provided field's length disagrees with the field set's cell count.
    FieldSize {
        /// Field name.
        name: String,
        /// Expected f32 lanes.
        expected: usize,
        /// Provided f32 lanes.
        found: usize,
    },
    /// A real-mode execution was given a virtual (model-only) field, or
    /// vice versa.
    ModeMismatch {
        /// Explanation.
        detail: String,
    },
    /// Recovery engaged (retries and/or fallback levels) but every avenue
    /// failed. Carries the full [`RecoveryReport`](crate::RecoveryReport)
    /// of what was tried; [`std::error::Error::source`] exposes the final
    /// underlying failure.
    Exhausted {
        /// Everything recovery attempted, in order.
        recovery: Box<crate::recovery::RecoveryReport>,
        /// The error that ended the last attempt.
        last: Box<EngineError>,
    },
    /// The request's [`CancelToken`](crate::CancelToken) fired — the caller
    /// disconnected or the request's deadline passed — and execution stopped
    /// at the next cancellation point (between recovery-ladder rungs and
    /// retries). The session is rolled back leak-free, exactly as for any
    /// other failed request.
    Cancelled {
        /// Whether the token fired because its deadline passed (as opposed
        /// to an explicit cancellation, e.g. a client disconnect).
        deadline_exceeded: bool,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Frontend(e) => write!(f, "{e}"),
            EngineError::Schedule(e) => write!(f, "{e}"),
            EngineError::Ocl(e) => write!(f, "device error: {e}"),
            EngineError::Fuse(e) => write!(f, "fusion error: {e}"),
            EngineError::MissingField { name } => {
                write!(f, "host did not provide input field `{name}`")
            }
            EngineError::NoSuchOutput { name } => {
                write!(f, "program assigns no field named `{name}`")
            }
            EngineError::FieldSize {
                name,
                expected,
                found,
            } => write!(
                f,
                "field `{name}`: expected {expected} lanes, found {found}"
            ),
            EngineError::StreamedRoots => {
                write!(f, "streamed execution computes only the natural result")
            }
            EngineError::ModeMismatch { detail } => write!(f, "mode mismatch: {detail}"),
            EngineError::Exhausted { recovery, last } => write!(
                f,
                "recovery exhausted after {} attempt(s) ({} retries, {} fallbacks): {last}",
                recovery.attempts.len(),
                recovery.retries,
                recovery.fallbacks,
            ),
            EngineError::Cancelled { deadline_exceeded } => {
                if *deadline_exceeded {
                    write!(f, "cancelled: request deadline exceeded")
                } else {
                    write!(f, "cancelled by caller")
                }
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Frontend(e) => Some(e),
            EngineError::Schedule(e) => Some(e),
            EngineError::Ocl(e) => Some(e),
            EngineError::Fuse(e) => Some(e),
            EngineError::Exhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<FrontendError> for EngineError {
    fn from(e: FrontendError) -> Self {
        EngineError::Frontend(e)
    }
}

impl From<ScheduleError> for EngineError {
    fn from(e: ScheduleError) -> Self {
        EngineError::Schedule(e)
    }
}

impl From<OclError> for EngineError {
    fn from(e: OclError) -> Self {
        EngineError::Ocl(e)
    }
}

impl From<FuseError> for EngineError {
    fn from(e: FuseError) -> Self {
        EngineError::Fuse(e)
    }
}

impl EngineError {
    /// Whether this is the device out-of-memory failure mode the paper's
    /// evaluation tracks (gray series in Figures 5 and 6).
    pub fn is_out_of_memory(&self) -> bool {
        match self {
            EngineError::Ocl(OclError::OutOfMemory { .. }) => true,
            EngineError::Exhausted { last, .. } => last.is_out_of_memory(),
            _ => false,
        }
    }

    /// The recovery record attached to an [`EngineError::Exhausted`]
    /// failure, if this is one.
    pub fn recovery(&self) -> Option<&crate::recovery::RecoveryReport> {
        match self {
            EngineError::Exhausted { recovery, .. } => Some(recovery),
            _ => None,
        }
    }

    /// Whether execution stopped because the request's
    /// [`CancelToken`](crate::CancelToken) fired (disconnect or deadline).
    pub fn is_cancelled(&self) -> bool {
        match self {
            EngineError::Cancelled { .. } => true,
            EngineError::Exhausted { last, .. } => last.is_cancelled(),
            _ => false,
        }
    }

    /// Whether the cancellation (if any) was caused by a deadline expiry.
    pub fn deadline_exceeded(&self) -> bool {
        match self {
            EngineError::Cancelled { deadline_exceeded } => *deadline_exceeded,
            EngineError::Exhausted { last, .. } => last.deadline_exceeded(),
            _ => false,
        }
    }
}
