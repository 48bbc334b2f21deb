//! A fast, non-cryptographic hasher for hot integer-keyed maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, whose per-key
//! cost dominates hash-join builds and aggregate group lookups (see
//! Jahangiri et al., *Design Trade-offs for a Robust Dynamic Hybrid
//! Hash Join*, PAPERS.md). This module provides the FxHash algorithm
//! (the multiply-xor hash used by rustc): one wrapping multiply and one
//! rotate per 8-byte word, no per-map random state. It is not
//! HashDoS-resistant — use it only for internal maps keyed by trusted
//! data (join keys, group keys, operator ids), never for keys an
//! adversary controls.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (golden-ratio derived, as in rustc's FxHasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: multiply-xor over 8-byte words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (zero state, zero allocation).
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The shared hot-path map alias: a `HashMap` using [`FxHasher`].
/// Every integer-keyed map on an execution hot path (hash-join build,
/// aggregate group index) goes through this alias so the hasher can be
/// swapped in one place.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_hasher_instances() {
        let hash = |k: i64| {
            let mut h = FxHasher::default();
            h.write_i64(k);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<i64, u32> = FxHashMap::default();
        for k in -1000..1000 {
            m.insert(k, (k * 2) as u32);
        }
        assert_eq!(m.len(), 2000);
        for k in -1000..1000 {
            assert_eq!(m.get(&k), Some(&((k * 2) as u32)));
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        // 0..8..n byte inputs all hash without panicking and differ.
        let mut seen = HashSet::new();
        for n in 0..32usize {
            let bytes: Vec<u8> = (0..n as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            seen.insert(h.finish());
        }
        // Lengths 0 and 1 may both touch one word, but the vast
        // majority must be distinct.
        assert!(seen.len() >= 30);
    }

    #[test]
    fn spread_over_sequential_keys() {
        // Sequential keys must not collapse into few buckets: check the
        // low 8 bits (the bucket index for small maps) spread out.
        let mut low_bits = HashSet::new();
        for k in 0i64..256 {
            let mut h = FxHasher::default();
            h.write_i64(k);
            low_bits.insert(h.finish() & 0xff);
        }
        assert!(low_bits.len() > 128, "only {} distinct", low_bits.len());
    }
}
