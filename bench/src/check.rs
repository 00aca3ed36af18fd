//! The correctness gate: output digests (taken outside every timed region),
//! the reference tolerance, and the committed golden digests.

use dfg_core::Field;

/// Digest of the exact bit patterns of `fields`, in order. Four independent
/// multiply–rotate lanes so hashing an 8 MiB output costs about a
/// millisecond between timed ops.
pub fn digest<'a>(fields: impl IntoIterator<Item = &'a Field>) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
    let mut total = 0u64;
    for field in fields {
        total = total.wrapping_add(field.data.len() as u64);
        let mut chunks = field.data.chunks_exact(4);
        for c in &mut chunks {
            for (lane, v) in lanes.iter_mut().zip(c) {
                *lane = (*lane ^ u64::from(v.to_bits()))
                    .wrapping_mul(K)
                    .rotate_left(29);
            }
        }
        for v in chunks.remainder() {
            lanes[0] = (lanes[0] ^ u64::from(v.to_bits()))
                .wrapping_mul(K)
                .rotate_left(29);
        }
    }
    lanes
        .iter()
        .fold(total, |acc, l| (acc ^ l).wrapping_mul(K).rotate_left(31))
}

/// The tolerance the repository's own parity suites state for a derived
/// field against the hand-written reference kernel: `1e-4 × max|reference|`
/// (`tests/integration.rs`). Returns the first offending cell.
pub fn within_reference(got: &[f32], reference: &[f32]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "length {} vs reference {}",
            got.len(),
            reference.len()
        ));
    }
    let scale = reference.iter().fold(1e-6f32, |a, &x| a.max(x.abs()));
    match got.iter().zip(reference).position(|(a, b)| {
        let off = (a - b).abs();
        off.is_nan() || off > 1e-4 * scale
    }) {
        Some(i) => Err(format!(
            "cell {i}: {} vs reference {} (scale {scale})",
            got[i], reference[i]
        )),
        None => Ok(()),
    }
}

/// The digest committed in `golden.json` for `key`, if any.
pub fn golden(key: &str) -> Option<u64> {
    let doc = dfg_trace::json::parse(include_str!("../golden.json")).ok()?;
    let hex = doc.get(key)?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_dataflow::Width;

    fn field(data: Vec<f32>) -> Field {
        Field {
            width: Width::Scalar,
            ncells: data.len(),
            data,
        }
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let a = field(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut flipped = a.clone();
        flipped.data[4] = f32::from_bits(5.0f32.to_bits() ^ 1);
        assert_ne!(digest([&a]), digest([&flipped]));
        let b = field(vec![0.0; 5]);
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
        assert_eq!(digest([&a]), digest([&a.clone()]));
        // -0.0 == 0.0 numerically, but the bits differ.
        assert_ne!(digest([&field(vec![0.0])]), digest([&field(vec![-0.0])]));
    }

    #[test]
    fn reference_tolerance_is_relative_to_the_field_scale() {
        assert!(within_reference(&[100.0, 1.0], &[100.005, 1.0]).is_ok());
        assert!(within_reference(&[100.0, 1.0], &[100.0, 1.02]).is_err());
        assert!(within_reference(&[f32::NAN], &[1.0]).is_err());
        assert!(within_reference(&[1.0], &[1.0, 2.0]).is_err());
    }
}
