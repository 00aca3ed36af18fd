//! Data-integrity primitives: a fast seeded block checksum over `f32` bit
//! patterns, the verification policy, and the typed violation categories.
//!
//! The resilience stack elsewhere in this workspace handles *fail-stop*
//! faults — errors that announce themselves. This module is the foundation
//! of the *silent*-corruption story (see `docs/ROBUSTNESS.md`, "Silent data
//! corruption"): a bit flip in a pooled device buffer, a stale pool slot, or
//! a garbled halo face produces wrong bits with no error attached. Content
//! checksums learned at write time and revalidated before use turn those
//! wrong bits into typed [`crate::OclError::IntegrityViolation`]s that the
//! recovery ladder can heal.
//!
//! The checksum runs [`LANES`] independent lanes over the payload and folds
//! them at the end, so no step waits on the one before it (a single chained
//! hash is one serial dependency per word and ran at 3 % of memcpy speed).
//! Words are packed two to a `u64`; pair `j` goes to lane `j % LANES`, whose
//! step is two multiply–xorshift rounds,
//! `x = (lane ^ pair) * K1; y = (x ^ (x >> 32)) * K2; lane = y ^ (y >> 29)` —
//! a bijection of the lane for a fixed pair and of the pair for a fixed
//! lane. The lanes, then the fewer-than-`2 * LANES` words left over, are
//! folded through a full splitmix64 chain. One definition serves device
//! buffers, halo faces and serve-reply payloads; it is:
//!
//! * **order-sensitive** — every lane folds its running state into every
//!   step and the final fold is a chain, so swapping two unequal words
//!   changes the sum;
//! * **length-bound** — the block length is mixed into the initial state of
//!   every lane and of the fold, so a zero-length block still yields a
//!   seed-specific value and a truncated payload never collides with its
//!   prefix;
//! * **single-bit exact** — every step from a word to the sum is a
//!   bijection of the running state, so *any* change confined to one word
//!   changes the sum, with certainty rather than with probability
//!   `1 - 2^-64` (verified exhaustively in the property tests);
//! * **mixing** — a change to a pair's top bits reaches the next step only
//!   through the second multiply, so what it does to the lane depends on the
//!   data and no fixed low-weight change to the lane's next pair undoes it.
//!   One round is not enough. Under multiply–rotate a flip of a pair's top
//!   bit survives the multiply as one bit and is cancelled by flipping
//!   bit 28 of the next pair; under one multiply and an `x >> 32` fold it
//!   becomes bits 63 and 31, cancelled by the signs of both words of the
//!   next pair — three flips, one sum, whatever the data. The property tests
//!   sweep every flip of a pair against every one- and two-bit change to
//!   the lane's next pair;
//! * **bit-pattern exact** — `f32` lanes are hashed via [`f32::to_bits`], so
//!   NaN payloads and the `-0.0`/`+0.0` distinction are part of the sum,
//!   matching the workspace's bit-exactness contract.
//!
//! All checksumming is host-side bookkeeping: it records no device events
//! and never advances the virtual clock, so enabling verification leaves
//! clocks bit-identical to a run without it.

/// One round of splitmix64: mixes `x` into a well-distributed 64-bit value.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for device-buffer content checksums learned by `Context`.
pub const BUFFER_SUM_SEED: u64 = 0xB0FF_E12D_0C8E_C521;

/// Seed for halo-face checksums carried by `dfg-cluster`'s face messages.
pub const HALO_SUM_SEED: u64 = 0xFACE_D00D_5EED_0001;

/// Seed for serve-reply payload checksums carried on the wire.
pub const PAYLOAD_SUM_SEED: u64 = 0x5E7E_F1E1_D5E7_0002;

/// Independent lanes the checksum runs; a block of `2 * LANES` words is one
/// step of every lane.
pub const LANES: usize = 8;

/// The one checksum definition; `bits` views a `T` as its 32-bit pattern.
#[inline(always)]
fn lane_sum<T: Copy>(seed: u64, words: &[T], bits: impl Fn(T) -> u32) -> u64 {
    let mut h = splitmix64(seed ^ splitmix64(words.len() as u64));
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = splitmix64(h ^ (i as u64 + 1));
    }
    let mut blocks = words.chunks_exact(2 * LANES);
    for block in &mut blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            let packed = u64::from(bits(pair[0])) | u64::from(bits(pair[1])) << 32;
            let x = (*lane ^ packed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let y = (x ^ (x >> 32)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            *lane = y ^ (y >> 29);
        }
    }
    for lane in lanes {
        h = splitmix64(h ^ lane);
    }
    for &w in blocks.remainder() {
        h = splitmix64(h ^ u64::from(bits(w)));
    }
    h
}

/// Seeded 64-bit checksum of a block of 32-bit words: depends on word
/// order, word values and block length (see the module docs).
pub fn checksum_bits(seed: u64, words: &[u32]) -> u64 {
    lane_sum(seed, words, |w| w)
}

/// Seeded 64-bit checksum of an `f32` slice, over the lanes' exact bit
/// patterns (`-0.0 != +0.0`, NaN payloads included); equal to
/// [`checksum_bits`] of the same patterns.
pub fn checksum_f32s(seed: u64, lanes: &[f32]) -> u64 {
    lane_sum(seed, lanes, f32::to_bits)
}

/// How much integrity verification a [`crate::Context`] performs.
///
/// Verification is host-side bookkeeping only — no policy level records
/// device events or advances the virtual clock, so clocks are bit-identical
/// across all three levels (and to a build without the integrity layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyPolicy {
    /// No checksums learned, none verified: the pre-integrity behavior,
    /// bit-for-bit (the default).
    #[default]
    Off,
    /// Checksums are learned on host writes, and buffers are revalidated on
    /// demand — the session calls [`crate::Context::verify_buffer`] before
    /// skipping a resident re-upload, so a corrupted resident is caught
    /// within one cycle and re-uploaded in place. Pool hand-outs are also
    /// self-checked (stale contents, broken guard zones). Detection lag is
    /// bounded by the revalidation cadence; transient buffers inside a
    /// cycle are not covered.
    Residents,
    /// Everything `Residents` does, plus: every sum-bearing kernel input is
    /// revalidated at launch and every buffer at download. Corruption is
    /// caught before the corrupted bits are consumed, at the cost of one
    /// host-side checksum pass per verified use.
    Full,
}

impl VerifyPolicy {
    /// Lower-case name, as accepted by `dfgc run --verify` and used in
    /// trace metadata.
    pub fn name(self) -> &'static str {
        match self {
            VerifyPolicy::Off => "off",
            VerifyPolicy::Residents => "residents",
            VerifyPolicy::Full => "full",
        }
    }

    /// Whether any verification happens at all.
    pub fn enabled(self) -> bool {
        self != VerifyPolicy::Off
    }
}

impl std::str::FromStr for VerifyPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyPolicy::Off),
            "residents" => Ok(VerifyPolicy::Residents),
            "full" => Ok(VerifyPolicy::Full),
            other => Err(format!(
                "unknown verify policy `{other}` (expected off, residents, or full)"
            )),
        }
    }
}

impl std::fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of corruption an [`crate::OclError::IntegrityViolation`]
/// detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A buffer's contents no longer match the checksum learned at its last
    /// write — a silent flip between the write and this verification.
    Checksum,
    /// The pool handed out a slot still carrying defined contents from its
    /// previous owner (release clears the `written` flag; a stale slot
    /// means that invariant was violated, e.g. by an injected
    /// `stale_slot` fault).
    StaleSlot,
    /// A guard word adjacent to a buffer's payload was overwritten — an
    /// out-of-bounds write into the allocation.
    Guard,
}

impl IntegrityKind {
    /// Lower-case name, as used in error messages and trace metadata.
    pub fn name(self) -> &'static str {
        match self {
            IntegrityKind::Checksum => "checksum",
            IntegrityKind::StaleSlot => "stale_slot",
            IntegrityKind::Guard => "guard",
        }
    }
}

impl std::fmt::Display for IntegrityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Integrity counters a [`crate::Context`] accumulates; snapshot with
/// [`crate::Context::integrity_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityStats {
    /// Checksum/guard/stale verifications performed.
    pub checks: u64,
    /// Violations detected (each also surfaced as a typed error or healed
    /// in place by the caller).
    pub violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let a = checksum_bits(1, &[10, 20, 30]);
        let b = checksum_bits(1, &[20, 10, 30]);
        assert_ne!(a, b);
    }

    #[test]
    fn checksum_depends_on_seed_and_length() {
        assert_ne!(checksum_bits(1, &[]), checksum_bits(2, &[]));
        assert_ne!(checksum_bits(1, &[0]), checksum_bits(1, &[0, 0]));
    }

    #[test]
    fn f32_checksum_distinguishes_signed_zero() {
        let pos = checksum_f32s(7, &[0.0, 1.0]);
        let neg = checksum_f32s(7, &[-0.0, 1.0]);
        assert_ne!(pos, neg, "-0.0 and +0.0 have different bit patterns");
    }

    #[test]
    fn f32_checksum_matches_bits_checksum() {
        let lanes = [1.5f32, -2.25, f32::NAN, 0.0];
        let bits: Vec<u32> = lanes.iter().map(|v| v.to_bits()).collect();
        assert_eq!(checksum_f32s(9, &lanes), checksum_bits(9, &bits));
    }

    #[test]
    fn verify_policy_round_trips_names() {
        for p in [
            VerifyPolicy::Off,
            VerifyPolicy::Residents,
            VerifyPolicy::Full,
        ] {
            assert_eq!(p.name().parse::<VerifyPolicy>().unwrap(), p);
        }
        assert!("sometimes".parse::<VerifyPolicy>().is_err());
        assert!(!VerifyPolicy::Off.enabled());
        assert!(VerifyPolicy::Residents.enabled());
        assert!(VerifyPolicy::Full.enabled());
    }
}
