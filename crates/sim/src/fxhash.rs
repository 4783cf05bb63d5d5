//! Deterministic, fast hashing for hot small-key maps.
//!
//! `std`'s default `RandomState` is SipHash-1-3 behind a per-process random
//! seed: robust against collision attacks, but ~20 ns per lookup even for a
//! `u16` key — measurable on per-message paths like the fabric port table.
//! Simulation keys are tiny trusted integers, so we use the multiply-xor
//! scheme popularised by rustc's `FxHasher` instead: a couple of arithmetic
//! ops per word, no seeding.
//!
//! Besides speed, the fixed seed makes map *iteration order* reproducible
//! across processes. No simulation result may depend on hash-map iteration
//! order anyway (the golden baselines already reproduce under `RandomState`'s
//! per-process seeds, which proves it), but a fixed order keeps debugging
//! sessions and `--trace` diffs stable too.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FNV/Firefox family; spreads low-entropy integer keys
/// across the high bits that `HashMap` uses for bucket selection.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher with a fixed seed. Not collision-resistant against
/// adversarial keys — only for trusted simulation-internal keys.
#[derive(Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            // Fold the byte count in so `"ab"` and `"ab\0"` differ.
            tail[7] = bytes.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one(42u16);
        let b = FxBuildHasher::default().hash_one(42u16);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hashes: Vec<u64> = (0u16..64).map(hash_of).collect();
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        // Bucket selection uses the high bits; ensure consecutive small
        // integers don't collapse there.
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(top.len() > 16, "high bits poorly mixed: {}", top.len());
    }

    #[test]
    fn byte_strings_fold_in_length() {
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"ab\0".as_slice()));
        assert_ne!(hash_of(b"".as_slice()), hash_of(b"\0".as_slice()));
    }

    #[test]
    fn map_smoke() {
        let mut m: FxHashMap<u16, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(1024, "kilo");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&1024), Some(&"kilo"));
        assert_eq!(m.get(&8), None);
    }
}
