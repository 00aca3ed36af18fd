//! Write-only output lanes: the view a kernel body writes its output through.
//!
//! A launch into fresh storage hands its kernel lanes that hold nothing yet
//! (the spare capacity of a `Vec::with_capacity`), so the storage is written
//! once, by the kernel, instead of being zero-filled and then overwritten
//! (DESIGN.md D11). A launch into recycled storage hands the kernel the same
//! view over lanes that hold a previous value. Through [`OutLanes`] safe code
//! can only store initialized `f32`s, and nothing can be read or handed out
//! that could un-initialize a lane, so wrapping an `&mut [f32]` is sound.
//!
//! The `unsafe` this takes is confined to this module, in two blocks: the
//! cast that wraps an `&mut [f32]`, and the `set_len` that publishes fresh
//! storage once it is written.

use std::mem::MaybeUninit;
use std::slice::SliceIndex;

/// The bits a debug build fills an output's lanes with before its kernel
/// runs: a signalling NaN, which no arithmetic produces (an operation on a
/// signalling NaN returns a quiet one). A lane that still holds these bits
/// after the launch is one the kernel did not write (see
/// [`first_unwritten`]).
pub const UNWRITTEN: u32 = 0x7FA0_0D11;

/// The first of `lanes` that still holds [`UNWRITTEN`]'s bits.
pub fn first_unwritten(lanes: &[f32]) -> Option<usize> {
    lanes.iter().position(|v| v.to_bits() == UNWRITTEN)
}

/// A kernel's output lanes, write-only: lanes may hold nothing on entry, so
/// they are stored through [`OutLanes::set`], [`OutLanes::fill`],
/// [`OutLanes::copy_from_slice`] or a [`Lane`] of [`OutLanes::iter_mut`],
/// and never read.
///
/// Two words, like the slice it wraps, so a kernel loop that takes one by
/// value knows its lanes alias no input and needs no runtime overlap check.
#[derive(Debug)]
#[repr(transparent)]
pub struct OutLanes<'a> {
    lanes: &'a mut [MaybeUninit<f32>],
}

/// One output lane, which can only be set.
pub struct Lane<'a>(&'a mut MaybeUninit<f32>);

impl Lane<'_> {
    /// Store `v` in the lane.
    #[inline(always)]
    pub fn set(self, v: f32) {
        self.0.write(v);
    }
}

impl<'a> From<&'a mut [f32]> for OutLanes<'a> {
    fn from(lanes: &'a mut [f32]) -> Self {
        let len = lanes.len();
        // SAFETY: `MaybeUninit<f32>` has `f32`'s layout, and the borrow stays
        // exclusive for `'a`. No lane can be de-initialized through the
        // result: `OutLanes` only stores initialized `f32`s and never hands
        // out a `MaybeUninit`, so the slice holds `f32`s when the borrow ends.
        let lanes = unsafe { std::slice::from_raw_parts_mut(lanes.as_mut_ptr().cast(), len) };
        OutLanes { lanes }
    }
}

impl<'a> OutLanes<'a> {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Store `v` in lane `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: f32) {
        self.lanes[i].write(v);
    }

    /// Store `v` in every lane.
    #[inline]
    pub fn fill(&mut self, v: f32) {
        for lane in self.lanes.iter_mut() {
            lane.write(v);
        }
    }

    /// Store `src` lane for lane.
    ///
    /// # Panics
    /// Panics if `src` is not exactly as long as the view.
    #[inline]
    pub fn copy_from_slice(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.len(), "source and output lanes differ");
        for (lane, &v) in self.lanes.iter_mut().zip(src) {
            lane.write(v);
        }
    }

    /// Every lane, in order, to be set one by one.
    #[inline]
    pub fn iter_mut(&mut self) -> impl ExactSizeIterator<Item = Lane<'_>> {
        self.lanes.iter_mut().map(Lane)
    }

    /// The same lanes for a shorter borrow, leaving this view usable after.
    #[inline]
    pub fn reborrow(&mut self) -> OutLanes<'_> {
        OutLanes {
            lanes: &mut *self.lanes,
        }
    }

    /// The lanes in `range`.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds.
    #[inline]
    pub fn slice<R>(self, range: R) -> OutLanes<'a>
    where
        R: SliceIndex<[MaybeUninit<f32>], Output = [MaybeUninit<f32>]>,
    {
        OutLanes {
            lanes: &mut self.lanes[range],
        }
    }

    /// The lanes before `mid` and the lanes from `mid` on.
    ///
    /// # Panics
    /// Panics if `mid > len`.
    #[inline]
    pub fn split_at(self, mid: usize) -> (OutLanes<'a>, OutLanes<'a>) {
        let (head, tail) = self.lanes.split_at_mut(mid);
        (OutLanes { lanes: head }, OutLanes { lanes: tail })
    }

    /// Consecutive runs of `size` lanes; the last may be shorter. The runs
    /// are disjoint, so each can go to its own worker of the host pool.
    pub fn chunks(self, size: usize) -> impl Iterator<Item = OutLanes<'a>> {
        self.lanes.chunks_mut(size).map(|lanes| OutLanes { lanes })
    }

    /// Consecutive runs of exactly `size` lanes; a shorter rest is left out.
    pub fn chunks_exact(self, size: usize) -> impl Iterator<Item = OutLanes<'a>> {
        self.lanes
            .chunks_exact_mut(size)
            .map(|lanes| OutLanes { lanes })
    }
}

/// Fresh storage of `len` lanes, written once: `write` stores every lane
/// through the view it gets, then the lanes are published as the `Vec`'s
/// contents. A debug build first fills them with [`UNWRITTEN`], so a lane
/// `write` skips is found by [`first_unwritten`] instead of being read
/// uninitialized.
pub(crate) fn write_once(len: usize, write: impl FnOnce(OutLanes<'_>)) -> Vec<f32> {
    let mut storage = Vec::with_capacity(len);
    let mut lanes = OutLanes {
        lanes: &mut storage.spare_capacity_mut()[..len],
    };
    if cfg!(debug_assertions) {
        lanes.fill(f32::from_bits(UNWRITTEN));
    }
    write(lanes);
    // SAFETY: the capacity holds `len` lanes, and `write` stored every one
    // of them. That is the contract of DESIGN.md D11, which a debug build
    // checks: a launch's kernel writes each lane below its `unwritten_from`,
    // and the context writes the rest. Until here the `Vec` is empty, so a
    // panic in `write` frees it without reading a lane.
    unsafe { storage.set_len(len) };
    storage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_view_of_initialized_lanes_stores_through_its_pieces() {
        let mut data = vec![1.0f32; 10];
        let (mut head, tail) = OutLanes::from(&mut data[..]).split_at(4);
        head.fill(2.0);
        for (c, mut chunk) in tail.chunks(4).enumerate() {
            chunk.set(0, 10.0 + c as f32);
        }
        assert_eq!(data, [2.0, 2.0, 2.0, 2.0, 10.0, 1.0, 1.0, 1.0, 11.0, 1.0]);
    }

    #[test]
    fn fresh_lanes_are_published_once_written() {
        let data = write_once(9, |out| {
            let (mut head, tail) = out.split_at(3);
            head.copy_from_slice(&[1.0, 2.0, 3.0]);
            tail.chunks(2).enumerate().for_each(|(c, mut chunk)| {
                for lane in chunk.iter_mut() {
                    lane.set(c as f32);
                }
            });
        });
        assert_eq!(data, [1.0, 2.0, 3.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        assert_eq!(first_unwritten(&data), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_debug_build_marks_a_skipped_lane() {
        let data = write_once(4, |out| out.slice(..3).fill(0.5));
        assert_eq!(first_unwritten(&data), Some(3));
    }

    #[test]
    fn a_panicking_writer_frees_empty_storage() {
        let hit = std::panic::catch_unwind(|| write_once(8, |_| panic!("kernel failed")));
        assert!(hit.is_err());
    }
}
