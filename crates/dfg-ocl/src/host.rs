//! The host end of a transfer.

/// The host end of a transfer: how many lanes move, and the host memory
/// they move from (`S = &[f32]`, an upload) or into (`S = &mut [f32]`, a
/// download) when the host has it.
///
/// A paper-scale modeling run has shapes but no arrays, so the same call
/// that copies on an [`ExecMode::Real`](crate::ExecMode) context is only
/// accounted on an [`ExecMode::Model`](crate::ExecMode) one. The lane count
/// is always known; the bytes are optional.
///
/// ```
/// use dfg_ocl::HostEnd;
///
/// let data = [1.0f32; 8];
/// assert_eq!(HostEnd::from(&data[..]).lanes(), 8);
/// assert_eq!(HostEnd::<&[f32]>::absent(1 << 40).lanes(), 1 << 40);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HostEnd<S> {
    pub(crate) lanes: usize,
    pub(crate) data: Option<S>,
}

impl<S> HostEnd<S> {
    /// A host end of `lanes` lanes with no memory behind it.
    pub fn absent(lanes: usize) -> Self {
        HostEnd { lanes, data: None }
    }

    /// Lanes this end of the transfer covers.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

impl<S: AsRef<[f32]>> HostEnd<S> {
    /// `data` when the host has it, otherwise `lanes` lanes with no memory
    /// behind them.
    pub fn or_absent(data: Option<S>, lanes: usize) -> Self {
        data.map_or_else(|| Self::absent(lanes), Self::from)
    }
}

impl<S: AsRef<[f32]>> From<S> for HostEnd<S> {
    fn from(data: S) -> Self {
        HostEnd {
            lanes: data.as_ref().len(),
            data: Some(data),
        }
    }
}
