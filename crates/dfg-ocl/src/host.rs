//! The host end of a transfer, and host arrays a device slot may adopt.

use std::sync::Arc;

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

/// A host array that is shared and immutable: a reference-counted handle to
/// one `Vec<f32>`, cloned without touching the lanes.
///
/// This is what lets an upload *adopt* instead of copy. A host field held as
/// a `SharedArray` and written to a buffer it covers exactly
/// ([`Context::enqueue_write_q`](crate::Context::enqueue_write_q)) is
/// accounted like any transfer — event, clock, bytes, fault draw — but the
/// device slot keeps a clone of the handle in place of a private copy of the
/// lanes. Nothing that holds a handle can write through it: the host
/// replaces or updates its array only through [`SharedArray::get_mut`],
/// which succeeds when no device slot (or other holder) shares it, and the
/// device layer gives a slot private storage before any path that writes.
///
/// ```
/// use dfg_ocl::SharedArray;
///
/// let mut a = SharedArray::from(vec![1.0f32; 4]);
/// assert_eq!(&a[..2], &[1.0, 1.0]);
/// a.get_mut().expect("sole holder")[0] = 2.0;
/// let b = a.clone(); // same lanes, no copy
/// assert!(a.get_mut().is_none(), "shared: read-only until `b` is dropped");
/// assert_eq!(b[0], 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SharedArray(Arc<Vec<f32>>);

impl SharedArray {
    /// The lanes, writable, when this is the only handle to them.
    pub fn get_mut(&mut self) -> Option<&mut [f32]> {
        Arc::get_mut(&mut self.0).map(Vec::as_mut_slice)
    }

    /// The array as a `Vec`: the allocation itself when this is the only
    /// handle, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl From<Vec<f32>> for SharedArray {
    fn from(data: Vec<f32>) -> Self {
        SharedArray(Arc::new(data))
    }
}

impl std::ops::Deref for SharedArray {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl AsRef<[f32]> for SharedArray {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

/// Host memory an upload can read. What the memory *is* decides how a real
/// context takes it: a borrowed slice is copied, a [`SharedArray`] that
/// covers the whole buffer is adopted.
pub trait UploadSource: AsRef<[f32]> {
    /// The shared array behind this source, if it is one.
    fn shared(&self) -> Option<&SharedArray> {
        None
    }
}

impl UploadSource for &[f32] {}

impl UploadSource for &SharedArray {
    fn shared(&self) -> Option<&SharedArray> {
        Some(self)
    }
}
