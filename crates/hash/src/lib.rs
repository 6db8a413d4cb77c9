//! Seeded hash-function families for distinct-count sketches.
//!
//! The Distinct-Count Sketch of Ganguly et al. (ICDCS 2007) needs three
//! kinds of hashing, all of which this crate provides without external
//! dependencies:
//!
//! * **Strong 64-bit mixers** ([`mix`]) — invertible finalizers in the
//!   SplitMix64/Murmur3 style, used to randomize the `[m²]` domain of
//!   source-destination address pairs before any structured hashing is
//!   applied (the paper's "function `f` that randomizes values of `[m²]`").
//! * **Pairwise-independent bucket hashes** ([`multiply_shift`]) — the
//!   second-level hash functions `g_j : [m²] → [s]` that scatter pairs
//!   across the inner hash tables.
//! * **The geometric level hash** ([`geometric`]) — the first-level hash
//!   `h : [m²] → {0, …, Θ(log m)}` with `Pr[h(x) = l] = 2^-(l+1)`,
//!   implemented (as in Flajolet–Martin) as the position of the
//!   least-significant set bit of a uniformly mixed word.
//!
//! All families are deterministic functions of an explicit [`seed`], so
//! sketches are reproducible and mergeable: two sketches built from the
//! same [`seed::SeedSequence`] share identical hash functions and can be
//! combined bucket-wise.
//!
//! # Examples
//!
//! ```
//! use dcs_hash::geometric::GeometricLevelHash;
//! use dcs_hash::seed::SeedSequence;
//!
//! let mut seeds = SeedSequence::new(42);
//! let h = GeometricLevelHash::new(seeds.next_seed(), 64);
//! let level = h.level(0xdead_beef);
//! assert!(level < 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod det;
pub mod geometric;
pub mod mix;
pub mod multiply_shift;
pub mod seed;

pub use geometric::GeometricLevelHash;
pub use mix::mix64;
pub use multiply_shift::MultiplyShiftHash;
pub use seed::SeedSequence;

/// A seeded function hashing 64-bit keys to 64-bit values.
///
/// Implementors are cheap to evaluate (a handful of arithmetic
/// instructions) and deterministic for a fixed seed. The trait is sealed
/// by convention to the families in this crate; it carries the shared
/// range-reduction and batched-fill methods.
///
/// # Examples
///
/// ```
/// use dcs_hash::{Hash64, MultiplyShiftHash};
///
/// let h = MultiplyShiftHash::new(7);
/// assert_eq!(h.hash(123), h.hash(123));
/// ```
pub trait Hash64 {
    /// Hashes `key` to a 64-bit value.
    fn hash(&self, key: u64) -> u64;

    /// Hashes `key` into the range `[0, range)`.
    ///
    /// Uses Lemire's multiply-high reduction, which preserves uniformity
    /// (up to negligible bias for ranges ≪ 2⁶⁴) without a modulo.
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero.
    fn hash_to_range(&self, key: u64, range: usize) -> usize {
        cast::lemire_index(self.hash(key), range)
    }

    /// Hashes every key into `[0, range)`, writing
    /// `out[i] = self.hash_to_range(keys[i], range)` (widened to `u64`
    /// so callers can stripe the results through a homogeneous scratch
    /// slab).
    ///
    /// The batched form used by chunked sketch updates: a single tight
    /// loop, so the hash + Lemire-reduction body can unroll across
    /// keys.
    ///
    /// For ranges below `2³²` (every realistic table size) the Lemire
    /// reduction runs as [`cast::lemire_index_narrow`] — an exact
    /// half-word decomposition of the 128-bit product whose 32×32→64
    /// multiplies the auto-vectorizer can lower to `vpmuludq`, unlike
    /// the full 64×64→high-64 multiply, which has no vector form.
    /// Identical output to [`hash_to_range`](Self::hash_to_range) for
    /// every key, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if `range` is zero.
    fn hash_to_range_fill(&self, keys: &[u64], range: usize, out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "hash_to_range_fill length mismatch");
        if let Ok(narrow) = u32::try_from(cast::u64_from_usize(range)) {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = cast::u64_from_usize(cast::lemire_index_narrow(self.hash(k), narrow));
            }
        } else {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = cast::u64_from_usize(cast::lemire_index(self.hash(k), range));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_to_range_is_in_range() {
        let h = MultiplyShiftHash::new(1);
        for key in 0..1000u64 {
            assert!(h.hash_to_range(key, 7) < 7);
            assert!(h.hash_to_range(key, 128) < 128);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn hash_to_range_zero_panics() {
        let h = MultiplyShiftHash::new(1);
        let _ = h.hash_to_range(1, 0);
    }

    #[test]
    fn hash_to_range_fill_matches_scalar() {
        let keys: Vec<u64> = (0..300u64).map(|k| k.wrapping_mul(0xdead_beef)).collect();
        let mut out = vec![0u64; keys.len()];
        let ms = MultiplyShiftHash::new(4);
        ms.hash_to_range_fill(&keys, 128, &mut out);
        for (&k, &b) in keys.iter().zip(&out) {
            assert_eq!(b, cast::u64_from_usize(ms.hash_to_range(k, 128)));
        }
    }

    #[test]
    fn hash_to_range_spreads_over_buckets() {
        let h = MultiplyShiftHash::new(99);
        let s = 128usize;
        let mut counts = vec![0u32; s];
        for key in 0..(s as u64 * 64) {
            counts[h.hash_to_range(key, s)] += 1;
        }
        // Each bucket expects 64 keys; allow generous slack.
        assert!(counts.iter().all(|&c| c > 16 && c < 192), "{counts:?}");
    }
}
