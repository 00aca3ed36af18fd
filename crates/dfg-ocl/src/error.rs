//! Device-layer errors.

/// Direction of a host↔device transfer, for [`OclError::TransferFailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host→device write.
    HostToDevice,
    /// Device→host read.
    DeviceToHost,
}

impl std::fmt::Display for TransferDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferDir::HostToDevice => f.write_str("host→device"),
            TransferDir::DeviceToHost => f.write_str("device→host"),
        }
    }
}

/// Failures raised by the simulated OpenCL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OclError {
    /// A buffer allocation would exceed the device's global memory. This is
    /// the failure mode behind the paper's gray "GPU failed" series.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes already allocated.
        in_use: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Use of a buffer id that was never allocated or was already released.
    InvalidBuffer {
        /// The offending handle, as a raw index.
        id: usize,
    },
    /// A host↔device transfer whose size does not match the buffer.
    SizeMismatch {
        /// Buffer length in f32 lanes.
        expected: usize,
        /// Host-side length in f32 lanes.
        found: usize,
    },
    /// A host↔device transfer failed (injected bus fault). Transient
    /// failures may succeed when the transfer is re-issued.
    TransferFailed {
        /// Transfer direction.
        direction: TransferDir,
        /// Bytes the transfer would have moved.
        bytes: u64,
        /// Whether re-issuing the transfer may succeed.
        transient: bool,
    },
    /// A kernel launch failed (injected queue fault). Transient failures
    /// may succeed when the launch is re-issued.
    LaunchFailed {
        /// Name of the kernel whose launch failed.
        kernel: String,
        /// Whether re-issuing the launch may succeed.
        transient: bool,
    },
    /// A kernel compilation failed (injected compiler fault). Persistent:
    /// recompiling the same source keeps failing until the plan changes.
    CompileFailed {
        /// Name of the kernel whose compilation failed.
        kernel: String,
        /// Whether recompiling may succeed.
        transient: bool,
    },
    /// A kernel launch whose output buffer is also one of its inputs.
    OutputAliasesInput {
        /// Name of the offending kernel.
        kernel: String,
    },
    /// Reading buffer contents in [`crate::ExecMode::Model`] mode, or a
    /// virtual transfer on a real-mode context.
    InvalidOperation(String),
    /// Verification caught silently corrupted data: a buffer whose contents
    /// no longer match the checksum learned at its last write, a pool slot
    /// handed out with stale contents, or an overwritten guard word. Always
    /// transient — the tainted buffer is invalidated and the recovery
    /// ladder re-uploads or re-derives it, after which the re-issued
    /// operation succeeds.
    IntegrityViolation {
        /// What category of corruption was detected.
        kind: crate::IntegrityKind,
        /// Raw index of the affected buffer (the slot the pool hand-out
        /// would have received, for stale-slot violations).
        buffer: usize,
        /// First corrupted f32 lane within the payload, when known (0 when
        /// the mismatch was detected at whole-buffer granularity).
        offset: usize,
    },
}

impl OclError {
    /// Whether this failure is transient: re-issuing the same operation may
    /// succeed (injected transfer/launch faults marked transient). Out of
    /// memory, compile failures, and protocol violations are persistent.
    pub fn is_transient(&self) -> bool {
        match self {
            OclError::TransferFailed { transient, .. }
            | OclError::LaunchFailed { transient, .. }
            | OclError::CompileFailed { transient, .. } => *transient,
            // Detected corruption heals: the driver invalidates the tainted
            // buffer and the retried attempt re-uploads or re-derives it.
            OclError::IntegrityViolation { .. } => true,
            _ => false,
        }
    }

    /// Whether this failure is a detected data-integrity violation.
    pub fn is_integrity(&self) -> bool {
        matches!(self, OclError::IntegrityViolation { .. })
    }

    /// Whether this failure is environmental — a property of the device or
    /// the run (memory pressure, injected faults) rather than a protocol
    /// bug in the caller (invalid handles, size mismatches, launch
    /// hazards). Only environmental failures are worth retrying or
    /// replanning around.
    pub fn is_environmental(&self) -> bool {
        matches!(
            self,
            OclError::OutOfMemory { .. }
                | OclError::TransferFailed { .. }
                | OclError::LaunchFailed { .. }
                | OclError::CompileFailed { .. }
                | OclError::IntegrityViolation { .. }
        )
    }
}

impl std::fmt::Display for OclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OclError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "out of device memory: requested {requested} B with {in_use} B in use \
                 of {capacity} B capacity"
            ),
            OclError::InvalidBuffer { id } => write!(f, "invalid buffer id {id}"),
            OclError::SizeMismatch { expected, found } => {
                write!(
                    f,
                    "size mismatch: buffer holds {expected} lanes, host has {found}"
                )
            }
            OclError::TransferFailed {
                direction,
                bytes,
                transient,
            } => write!(
                f,
                "{direction} transfer of {bytes} B failed ({})",
                if *transient {
                    "transient"
                } else {
                    "persistent"
                }
            ),
            OclError::LaunchFailed { kernel, transient } => write!(
                f,
                "launch of kernel `{kernel}` failed ({})",
                if *transient {
                    "transient"
                } else {
                    "persistent"
                }
            ),
            OclError::CompileFailed { kernel, transient } => write!(
                f,
                "compilation of kernel `{kernel}` failed ({})",
                if *transient {
                    "transient"
                } else {
                    "persistent"
                }
            ),
            OclError::OutputAliasesInput { kernel } => {
                write!(f, "kernel `{kernel}` output aliases an input")
            }
            OclError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            OclError::IntegrityViolation {
                kind,
                buffer,
                offset,
            } => write!(
                f,
                "integrity violation ({kind}) in buffer {buffer} at lane {offset}"
            ),
        }
    }
}

impl std::error::Error for OclError {}
