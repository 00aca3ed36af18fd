//! Property tests for the integrity checksum: the sum must be sensitive to
//! word order, exact bit patterns (NaN payloads, signed zero), block
//! length, and — the property detection correctness rests on — every
//! single-bit flip of the payload. Blocks run past `2 * LANES` words, so
//! the lane steps, the fold and the left-over words are all covered.

use proptest::prelude::*;

use dfg_ocl::integrity::{checksum_bits, checksum_f32s, BUFFER_SUM_SEED, LANES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Swapping two unequal words changes the sum (order sensitivity).
    #[test]
    fn swapping_two_unequal_words_changes_the_sum(
        mut words in prop::collection::vec(0u32..=u32::MAX, 2..200),
        i in 0usize..4096,
        j in 0usize..4096,
    ) {
        let a = i % words.len();
        let b = j % words.len();
        if a == b {
            return;
        }
        // Force the swap to be observable rather than discarding the case.
        if words[a] == words[b] {
            words[a] ^= 1;
        }
        let before = checksum_bits(BUFFER_SUM_SEED, &words);
        words.swap(a, b);
        prop_assert_ne!(before, checksum_bits(BUFFER_SUM_SEED, &words));
    }

    /// Every single-bit flip anywhere in the block changes the sum — the
    /// property `mem_flip` detection rests on.
    #[test]
    fn any_single_bit_flip_changes_the_sum(
        mut words in prop::collection::vec(0u32..=u32::MAX, 1..200),
        lane in 0usize..4096,
        bit in 0u32..32,
    ) {
        let l = lane % words.len();
        let before = checksum_bits(BUFFER_SUM_SEED, &words);
        words[l] ^= 1 << bit;
        prop_assert_ne!(before, checksum_bits(BUFFER_SUM_SEED, &words));
    }

    /// Truncating a block never collides with the original (length is
    /// folded into the initial state, not just the word stream).
    #[test]
    fn a_truncated_block_never_collides_with_its_prefix(
        words in prop::collection::vec(0u32..=u32::MAX, 1..200),
        cut in 0usize..4096,
    ) {
        let n = cut % words.len();
        prop_assert_ne!(
            checksum_bits(BUFFER_SUM_SEED, &words),
            checksum_bits(BUFFER_SUM_SEED, &words[..n]),
        );
    }

    /// The f32 checksum is exactly the bits checksum of the lanes'
    /// `to_bits` patterns — NaN payload bits and `-0.0` included.
    #[test]
    fn f32_checksum_is_the_bit_pattern_checksum(
        bits in prop::collection::vec(0u32..=u32::MAX, 0..200),
        seed in 0u64..u64::MAX,
    ) {
        let lanes: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let relanes: Vec<u32> = lanes.iter().map(|v| v.to_bits()).collect();
        // NaN bit patterns survive the f32 round-trip on this path; the
        // checksum must agree with the raw words whenever they do.
        if relanes != bits {
            return;
        }
        prop_assert_eq!(checksum_f32s(seed, &lanes), checksum_bits(seed, &bits));
    }

    /// Zero-length blocks hash to seed-specific values.
    #[test]
    fn empty_blocks_are_seed_specific(a in 0u64..u64::MAX, delta in 0u64..u64::MAX) {
        let b = a ^ (delta | 1);
        prop_assert_ne!(checksum_bits(a, &[]), checksum_bits(b, &[]));
    }
}

/// Every single-bit corruption of `base` is detected, and each lands on a
/// distinct sum.
fn assert_all_flips_detected_and_distinct(base: &[u32]) {
    let clean = checksum_bits(BUFFER_SUM_SEED, base);
    let mut seen = std::collections::HashSet::new();
    seen.insert(clean);
    for lane in 0..base.len() {
        for bit in 0..32 {
            let mut corrupt = base.to_vec();
            corrupt[lane] ^= 1u32 << bit;
            let sum = checksum_bits(BUFFER_SUM_SEED, &corrupt);
            assert_ne!(sum, clean, "flip of lane {lane} bit {bit} undetected");
            assert!(
                seen.insert(sum),
                "two distinct corruptions collided (lane {lane} bit {bit})"
            );
        }
    }
}

/// Exhaustive single-bit sweep over a small block (shorter than one lane
/// step, so all of it is folded word by word).
#[test]
fn exhaustive_bit_flips_on_a_small_block_all_detected() {
    let base: Vec<u32> = [1.5f32, -0.0, f32::NAN, 0.0, 3.0e30, -2.25]
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_all_flips_detected_and_distinct(&base);
}

/// Three 77-word blocks — four steps of every lane plus thirteen left-over
/// words: smooth data (neighbouring words nearly equal, as in a field),
/// all-zero data and noise. The first two are what a weak lane step cancels
/// on.
fn lane_blocks() -> [Vec<u32>; 3] {
    let smooth = (0..77)
        .map(|i| (1.0f32 + i as f32 * 1e-3).to_bits())
        .collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let noise = (0..77)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        })
        .collect();
    [smooth, vec![0u32; 77], noise]
}

/// The same sweep where the lanes do the work, 2 464 corruptions a block.
#[test]
fn exhaustive_bit_flips_across_the_lanes_all_detected_and_distinct() {
    for block in lane_blocks() {
        assert_all_flips_detected_and_distinct(&block);
    }
}

/// A flip in one packed pair is never cancelled by one or two flips in the
/// same lane's next pair, for any of the 64 × (64 + 2 016) combinations on
/// every lane. This is where a lane step that does not mix shows: under
/// multiply–rotate the top bit of a pair cancels against bit 28 of the next,
/// and under `x = (lane ^ pair) * K; x ^ (x >> 32)` bit 63 of a pair (the
/// sign of its odd word) cancels against bits 63 and 31 of the next (the
/// signs of both its words), whatever the data.
#[test]
fn a_flip_is_never_cancelled_in_the_lanes_next_pair() {
    let xor_pair = |words: &mut [u32], pair: usize, mask: u64| {
        words[2 * pair] ^= mask as u32;
        words[2 * pair + 1] ^= (mask >> 32) as u32;
    };
    for block in lane_blocks() {
        let clean = checksum_bits(BUFFER_SUM_SEED, &block);
        for lane in 0..LANES {
            // Steps 1 and 2 of the lane: pairs `LANES + lane` and the next.
            let (first, next) = (LANES + lane, 2 * LANES + lane);
            for bit in 0..64 {
                let mut once = block.clone();
                xor_pair(&mut once, first, 1 << bit);
                for i in 0..64 {
                    for j in i..64 {
                        // `i == j` is the single flip, `i < j` the double.
                        let mut corrupt = once.clone();
                        xor_pair(&mut corrupt, next, 1 << i | 1 << j);
                        assert_ne!(
                            checksum_bits(BUFFER_SUM_SEED, &corrupt),
                            clean,
                            "lane {lane}: bit {bit}, then bits {i} and {j} of the next pair"
                        );
                    }
                }
            }
        }
    }
}

/// Moving a word between lanes, or between the lanes and the left-over
/// words, changes the sum: order sensitivity is not per lane only.
#[test]
fn rotating_a_block_changes_the_sum() {
    let words: Vec<u32> = (0..77u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let clean = checksum_bits(BUFFER_SUM_SEED, &words);
    for by in [1, 2, 15, 16, 17, 32, 64] {
        let mut rotated = words.clone();
        rotated.rotate_left(by);
        assert_ne!(
            checksum_bits(BUFFER_SUM_SEED, &rotated),
            clean,
            "rotate {by}"
        );
    }
}

/// Signed zero and NaN payloads are part of the sum.
#[test]
fn signed_zero_and_nan_payloads_are_distinguished() {
    assert_ne!(
        checksum_f32s(1, &[0.0, 1.0]),
        checksum_f32s(1, &[-0.0, 1.0])
    );
    let quiet = f32::from_bits(0x7FC0_0001);
    let other = f32::from_bits(0x7FC0_0002);
    assert!(quiet.is_nan() && other.is_nan());
    assert_ne!(
        checksum_f32s(1, &[quiet]),
        checksum_f32s(1, &[other]),
        "distinct NaN payloads hash differently"
    );
}
