//! Halo (ghost-cell) exchange primitives.
//!
//! Each block owns `dims` cells at `offset` of the global mesh and computes
//! on a ghosted extent with up to one extra cell per side (see
//! [`dfg_mesh::SubGrid::ghosted`]). A block's boundary face is sent to the
//! face-adjacent neighbour, which writes it into its ghost layer. Axis-
//! aligned faces are sufficient for the gradient stencil: a cell's gradient
//! only reads the six face neighbours.
//!
//! Every copy here is a [`decomp::extract_block`] or [`decomp::insert_block`]:
//! a face is a block one layer thick, and an interior is a block of the
//! ghosted array.

use dfg_mesh::{decomp, SubGrid};
use dfg_ocl::integrity::{checksum_f32s, HALO_SUM_SEED};

/// A malformed halo payload, raised when a face or a block's owned data is
/// written into its ghosted array, instead of an abort: a lost or corrupt
/// rank must not take its neighbours down. Chains into `ClusterError` via
/// `source()`.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeError {
    /// A face arrived for a side of the block that has no ghost layer
    /// (the block touches the global boundary there).
    NoGhostLayer {
        /// Axis of the attempted insert (0..3).
        axis: usize,
        /// Whether the low-side layer was targeted.
        low_side: bool,
    },
    /// A face payload does not cover the receiver's owned extent in the
    /// two non-axis dimensions.
    FaceExtent {
        /// Axis of the attempted insert (0..3).
        axis: usize,
        /// Cells in the received payload.
        got: usize,
        /// Cells the receiver's extent requires.
        expected: usize,
    },
    /// An owned payload does not match the interior extent it is being
    /// copied into.
    InteriorExtent {
        /// Cells in the payload.
        got: usize,
        /// Cells the interior requires.
        expected: usize,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::NoGhostLayer { axis, low_side } => write!(
                f,
                "face targets the {} ghost layer on axis {axis}, but the block touches \
                 the global boundary there",
                if *low_side { "low-side" } else { "high-side" }
            ),
            ExchangeError::FaceExtent {
                axis,
                got,
                expected,
            } => write!(
                f,
                "face on axis {axis} carries {got} cells but the receiver's extent \
                 requires {expected}"
            ),
            ExchangeError::InteriorExtent { got, expected } => write!(
                f,
                "owned payload carries {got} cells but the interior extent requires {expected}"
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// One halo message: a face of owned data headed for a neighbour's ghost
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaceMsg {
    /// Receiving block's index in the decomposition.
    pub to_block: usize,
    /// Axis of adjacency (0..3).
    pub axis: usize,
    /// True if the data fills the receiver's *low*-side ghost layer.
    pub low_side: bool,
    /// Index of the field this face belongs to (e.g. 0=u, 1=v, 2=w).
    pub field: usize,
    /// Face data, x-major over the two non-`axis` axes, covering exactly
    /// the sender's owned extent in those axes.
    pub data: Vec<f32>,
    /// Seeded checksum over `data` (see
    /// [`dfg_ocl::integrity::checksum_f32s`] with
    /// [`dfg_ocl::integrity::HALO_SUM_SEED`]), computed sender-side before
    /// the face leaves the rank. A receiver whose recomputation disagrees
    /// drops the face and falls back to its analytic ghost fill instead of
    /// stenciling over garbled bits.
    pub sum: u64,
}

impl FaceMsg {
    /// Build a face message, sealing `data` under its sender-side checksum.
    pub(crate) fn seal(
        to_block: usize,
        axis: usize,
        low_side: bool,
        field: usize,
        data: Vec<f32>,
    ) -> Self {
        let sum = checksum_f32s(HALO_SUM_SEED, &data);
        FaceMsg {
            to_block,
            axis,
            low_side,
            field,
            data,
            sum,
        }
    }

    /// Whether `data` still matches the checksum it was sealed under.
    pub(crate) fn verify(&self) -> bool {
        checksum_f32s(HALO_SUM_SEED, &self.data) == self.sum
    }
}

/// The one-layer slab of an extent: `dims` with `axis` cut to 1 cell.
fn layer(dims: [usize; 3], axis: usize) -> [usize; 3] {
    let mut face = dims;
    face[axis] = 1;
    face
}

/// Extract the owned boundary face of `owned` (x-major over `dims`) at
/// `axis`, `high` side (`true` = last layer, `false` = first layer).
pub(crate) fn extract_face(owned: &[f32], dims: [usize; 3], axis: usize, high: bool) -> Vec<f32> {
    let mut at = [0; 3];
    at[axis] = if high { dims[axis] - 1 } else { 0 };
    decomp::extract_block(owned, dims, at, layer(dims, axis))
}

/// Write a received face into a block's ghosted array.
///
/// `ghosted` is x-major over `gdims`; `istart`/`idims` locate the owned
/// interior inside it (from [`SubGrid::interior_in_ghosted`]). The face
/// covers the owned extent of the two non-`axis` axes and lands on the
/// ghost layer just below (`low_side`) or above the interior along `axis`.
/// A face targeting a side with no ghost layer, or with the wrong extent,
/// is an [`ExchangeError`].
pub(crate) fn insert_face(
    ghosted: &mut [f32],
    gdims: [usize; 3],
    istart: [usize; 3],
    idims: [usize; 3],
    axis: usize,
    low_side: bool,
    face: &[f32],
) -> Result<(), ExchangeError> {
    let mut at = istart;
    at[axis] = if low_side {
        istart[axis]
            .checked_sub(1)
            .ok_or(ExchangeError::NoGhostLayer { axis, low_side })?
    } else {
        istart[axis] + idims[axis]
    };
    if at[axis] >= gdims[axis] {
        return Err(ExchangeError::NoGhostLayer { axis, low_side });
    }
    let fdims = layer(idims, axis);
    let expected = fdims.iter().product();
    if face.len() != expected {
        return Err(ExchangeError::FaceExtent {
            axis,
            got: face.len(),
            expected,
        });
    }
    decomp::insert_block(ghosted, gdims, at, fdims, face);
    Ok(())
}

/// Copy a block's owned data into the interior of its ghosted array.
pub(crate) fn insert_interior(
    ghosted: &mut [f32],
    gdims: [usize; 3],
    istart: [usize; 3],
    idims: [usize; 3],
    owned: &[f32],
) -> Result<(), ExchangeError> {
    let expected = idims.iter().product();
    if owned.len() != expected {
        return Err(ExchangeError::InteriorExtent {
            got: owned.len(),
            expected,
        });
    }
    decomp::insert_block(ghosted, gdims, istart, idims, owned);
    Ok(())
}

/// Extract the interior (owned) region back out of a ghosted result array
/// of `lanes` values per cell (the lanes of a cell widen its x extent).
pub(crate) fn extract_interior(
    ghosted: &[f32],
    gdims: [usize; 3],
    istart: [usize; 3],
    idims: [usize; 3],
    lanes: usize,
) -> Vec<f32> {
    let wide = |d: [usize; 3]| [d[0] * lanes, d[1], d[2]];
    decomp::extract_block(ghosted, wide(gdims), wide(istart), wide(idims))
}

/// Number of face-adjacent neighbours of a block in a `nblocks` block grid.
pub(crate) fn neighbor_count(block: &SubGrid, nblocks: [usize; 3]) -> usize {
    (0..3)
        .map(|d| usize::from(block.block[d] > 0) + usize::from(block.block[d] + 1 < nblocks[d]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_mesh::partition_blocks;

    #[test]
    fn extract_face_axis0() {
        // dims [2,2,2]: values 0..8, x fastest.
        let owned: Vec<f32> = (0..8).map(|i| i as f32).collect();
        assert_eq!(
            extract_face(&owned, [2, 2, 2], 0, false),
            vec![0.0, 2.0, 4.0, 6.0]
        );
        assert_eq!(
            extract_face(&owned, [2, 2, 2], 0, true),
            vec![1.0, 3.0, 5.0, 7.0]
        );
    }

    #[test]
    fn extract_face_axis1_and_2() {
        let owned: Vec<f32> = (0..8).map(|i| i as f32).collect();
        assert_eq!(
            extract_face(&owned, [2, 2, 2], 1, false),
            vec![0.0, 1.0, 4.0, 5.0]
        );
        assert_eq!(
            extract_face(&owned, [2, 2, 2], 2, true),
            vec![4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn interior_insert_extract_round_trip() {
        let gdims = [4, 4, 4];
        let istart = [1, 1, 1];
        let idims = [2, 2, 2];
        let owned: Vec<f32> = (10..18).map(|i| i as f32).collect();
        let mut ghosted = vec![0.0f32; 64];
        insert_interior(&mut ghosted, gdims, istart, idims, &owned).unwrap();
        assert_eq!(extract_interior(&ghosted, gdims, istart, idims, 1), owned);
        // A ghost corner stays untouched.
        assert_eq!(ghosted[0], 0.0);
    }

    #[test]
    fn face_lands_in_low_ghost_layer() {
        // Interior occupies x = 1..3 of a [3,2,2] ghosted array; the low
        // ghost layer is the x = 0 plane.
        let gdims = [3, 2, 2];
        let istart = [1, 0, 0];
        let idims = [2, 2, 2];
        let mut ghosted = vec![0.0f32; 12];
        let face = vec![7.0, 8.0, 9.0, 10.0];
        insert_face(&mut ghosted, gdims, istart, idims, 0, true, &face).unwrap();
        assert_eq!(ghosted[0], 7.0);
        assert_eq!(ghosted[3], 8.0);
        assert_eq!(ghosted[6], 9.0);
        assert_eq!(ghosted[9], 10.0);
        // Interior untouched.
        assert_eq!(ghosted[1], 0.0);
    }

    #[test]
    fn face_lands_in_high_ghost_layer() {
        // Interior occupies x = 0..2 of a [3,2,2] ghosted array; the high
        // ghost layer is the x = 2 plane.
        let gdims = [3, 2, 2];
        let istart = [0, 0, 0];
        let idims = [2, 2, 2];
        let mut ghosted = vec![0.0f32; 12];
        let face = vec![7.0, 8.0, 9.0, 10.0];
        insert_face(&mut ghosted, gdims, istart, idims, 0, false, &face).unwrap();
        assert_eq!(ghosted[2], 7.0);
        assert_eq!(ghosted[5], 8.0);
        assert_eq!(ghosted[8], 9.0);
        assert_eq!(ghosted[11], 10.0);
    }

    #[test]
    fn insert_face_checks_bounds() {
        // Interior already touches the high edge: no high-side ghost layer.
        let mut ghosted = vec![0.0f32; 12];
        let err = insert_face(
            &mut ghosted,
            [3, 2, 2],
            [1, 0, 0],
            [2, 2, 2],
            0,
            false,
            &[0.0; 4],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExchangeError::NoGhostLayer {
                axis: 0,
                low_side: false
            }
        );
        // And the low side of a block whose interior starts at the origin.
        let err = insert_face(
            &mut ghosted,
            [3, 2, 2],
            [0, 0, 0],
            [2, 2, 2],
            0,
            true,
            &[0.0; 4],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExchangeError::NoGhostLayer { low_side: true, .. }
        ));
        assert!(err.to_string().contains("global boundary"));
    }

    #[test]
    fn malformed_payload_extents_are_typed_errors() {
        let mut ghosted = vec![0.0f32; 12];
        let err = insert_face(
            &mut ghosted,
            [3, 2, 2],
            [1, 0, 0],
            [2, 2, 2],
            0,
            true,
            &[0.0; 3],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExchangeError::FaceExtent {
                axis: 0,
                got: 3,
                expected: 4
            }
        );
        let err =
            insert_interior(&mut ghosted, [3, 2, 2], [1, 0, 0], [2, 2, 2], &[0.0; 5]).unwrap_err();
        assert_eq!(
            err,
            ExchangeError::InteriorExtent {
                got: 5,
                expected: 8
            }
        );
    }

    #[test]
    fn neighbor_counts() {
        let blocks = partition_blocks([8, 8, 8], [2, 2, 2]);
        for b in &blocks {
            assert_eq!(
                neighbor_count(b, [2, 2, 2]),
                3,
                "corner block of a 2x2x2 grid"
            );
        }
        let blocks = partition_blocks([12, 4, 4], [3, 1, 1]);
        assert_eq!(neighbor_count(&blocks[0], [3, 1, 1]), 1);
        assert_eq!(neighbor_count(&blocks[1], [3, 1, 1]), 2);
    }
}
