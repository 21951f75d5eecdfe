//! A small, fast, non-cryptographic hasher for hot-path maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which the simulator's per-access bookkeeping structures
//! do not need: keys are [`PageId`](crate::PageId)-like integers under the
//! process's own control, and the maps live entirely inside one
//! simulation. This module provides an FxHash-style multiply-rotate hasher
//! (the scheme used by the Firefox and rustc internals) that hashes a
//! `u64` key in a couple of arithmetic instructions instead of a SipHash
//! round, together with map/set type aliases.
//!
//! The hash is deterministic across processes and platforms for the same
//! byte stream, which also makes it suitable for stable fingerprints (see
//! `hybridmem-core`'s trace cache).
//!
//! # Examples
//!
//! ```
//! use hybridmem_types::{FxHashMap, PageId};
//!
//! let mut counters: FxHashMap<PageId, u64> = FxHashMap::default();
//! *counters.entry(PageId::new(7)).or_insert(0) += 1;
//! assert_eq!(counters[&PageId::new(7)], 1);
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash scheme (a 64-bit prime close to
/// 2⁶⁴/φ, chosen for good bit diffusion under wrapping multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// An FxHash-style streaming hasher: `state = (state <<< 5 ^ word) * SEED`
/// per ingested word.
///
/// Not cryptographic and not DoS-resistant; use only for in-process maps
/// over trusted keys and for stable fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            #[expect(clippy::indexing_slicing, reason = "a remainder is under 8 bytes")]
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" hash differently.
            self.add_word(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_word(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add_word(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_word(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_word(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.add_word(value as u64);
        self.add_word((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_word(value as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s (stateless, so every
/// map built from it hashes identically).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]. Drop-in replacement for hot-path maps
/// keyed by small trusted values.
#[expect(clippy::disallowed_types, reason = "unkeyed hasher, repeatable order")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
#[expect(clippy::disallowed_types, reason = "unkeyed hasher, repeatable order")]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes one `Hash` value to a stable `u64` fingerprint with [`FxHasher`].
///
/// Stable across processes and platforms for the same logical value (the
/// hasher is unkeyed and all words are ingested little-endian).
#[must_use]
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(fx_hash_one(&12_345u64), fx_hash_one(&12_345u64));
        assert_eq!(fx_hash_one(&"hello"), fx_hash_one(&"hello"));
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
    }

    #[test]
    fn trailing_bytes_are_significant() {
        assert_ne!(fx_hash_one(&[1u8, 2]), fx_hash_one(&[1u8, 2, 0]));
        assert_ne!(fx_hash_one(&"ab"), fx_hash_one(&"ab\0"));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));

        let mut set: FxHashSet<crate::PageId> = FxHashSet::default();
        assert!(set.insert(crate::PageId::new(9)));
        assert!(!set.insert(crate::PageId::new(9)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn distributes_sequential_keys() {
        // Sequential page ids must not collapse into few buckets: check
        // that the low bits (what a power-of-two-capacity table uses)
        // spread out.
        let mut low_bits = FxHashSet::default();
        for page in 0..256u64 {
            low_bits.insert(fx_hash_one(&page) & 0xff);
        }
        assert!(low_bits.len() > 128, "only {} distinct", low_bits.len());
    }
}
