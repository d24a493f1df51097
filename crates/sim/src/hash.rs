//! A fast, deterministic hasher for the simulator's runtime maps.
//!
//! Every map on a per-event path is keyed by simulator-internal ids
//! (request ids, component indices, MAC addresses, lambda ids), so the
//! HashDoS resistance of `std`'s randomly seeded SipHash buys nothing and
//! costs a noticeable share of host time. [`FxHasher`] is the
//! multiply-rotate word hash used inside `rustc` (the "Fx" hash): one
//! rotate, xor and multiply per word, with no per-process seed. A side
//! effect is that iteration order over a [`FastMap`] is a pure function of
//! its insertion history, never of the process.
//!
//! # Examples
//!
//! ```
//! use lnic_sim::hash::{FastMap, FastSet};
//!
//! let mut inflight: FastMap<u64, &str> = FastMap::default();
//! inflight.insert(7, "pending");
//! assert_eq!(inflight.get(&7), Some(&"pending"));
//!
//! let seen: FastSet<u32> = [1, 2, 2, 3].into_iter().collect();
//! assert_eq!(seen.len(), 3);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic [`FxHasher`]. Build with
/// `FastMap::default()` or `collect()`.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the deterministic [`FxHasher`]. Build with
/// `FastSet::default()` or `collect()`.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; stateless, so every map hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiplier of the Fx hash: an odd 64-bit constant derived from the
/// golden ratio, so the multiply permutes the low bits and spreads entropy
/// into the high bits that `hashbrown` uses for its control bytes.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Final rotate applied by [`FxHasher::finish`].
const FINISH_ROTATE: u32 = 26;

/// The Fx word hash: `h = (h.rotl(5) ^ word) * SEED` per word, then one
/// final rotate so the well-mixed high product bits land in the low bits
/// `hashbrown` indexes buckets with (keys that are multiples of a large
/// power of two would otherwise all share a bucket).
///
/// Not collision resistant against an adversary; use it only for keys the
/// simulator itself generates.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn fixed_key_hashes_to_a_fixed_value() {
        // Pinned values: a per-process seed would move these between runs.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), 0xdc9c_882a_5545_f306);
        assert_eq!(fx(&42u64), 42u64.wrapping_mul(SEED).rotate_left(26));
        let first = 3u64.wrapping_mul(SEED);
        let pair = (first.rotate_left(5) ^ 4).wrapping_mul(SEED);
        assert_eq!(fx(&(3u32, 4u64)), pair.rotate_left(26));
        // Two independently built hashers agree.
        let a = FxBuildHasher::default().hash_one("request-17");
        let b = FxBuildHasher::default().hash_one("request-17");
        assert_eq!(a, b);
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut whole = FxHasher::default();
        whole.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut split = FxHasher::default();
        split.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        split.write_u64(9);
        assert_eq!(whole.finish(), split.finish());
    }

    #[test]
    fn power_of_two_strided_keys_spread_over_low_bits() {
        let low: FastSet<u64> = (0..256u64).map(|k| fx(&(k << 32)) & 0xff).collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn iteration_order_depends_only_on_contents() {
        let build = || (0..64u64).map(|k| (k * 7919, k)).collect::<FastMap<_, _>>();
        let a: Vec<_> = build().into_iter().collect();
        let b: Vec<_> = build().into_iter().collect();
        assert_eq!(a, b);
    }
}
