//! A fast, non-cryptographic hasher for the search's hot maps.
//!
//! The cached layer's cell table hashes one mixed-radix `u64` key per row
//! it folds and per cell it answers, and a best-first search's store finds
//! stored `[u32]` grid points by key (the expanders and the layered stores
//! hash nothing); the standard library's SipHash would dominate there. This is
//! an FxHash-style multiply-xor hasher (no DoS resistance — keys are
//! internally generated grid coordinates, never attacker-controlled).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over word-sized chunks.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.mix(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = std::collections::HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        let a = vec![1u32, 2, 3];
        let b = vec![1u32, 2, 4];
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&vec![0u32, 1]), hash_of(&vec![1u32, 0]));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FastMap<Vec<u32>, u32> = FastMap::default();
        m.insert(vec![1, 2], 3);
        assert_eq!(m.get([1u32, 2].as_slice()), Some(&3));
        let mut s: FastSet<Vec<u32>> = FastSet::default();
        assert!(s.insert(vec![5]));
        assert!(!s.insert(vec![5]));
    }

    #[test]
    fn low_collision_rate_on_grid_points() {
        // All points of a 20^3 grid must hash with few collisions.
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for a in 0u32..20 {
            for b in 0u32..20 {
                for c in 0u32..20 {
                    if !seen.insert(hash_of(&vec![a, b, c])) {
                        collisions += 1;
                    }
                }
            }
        }
        assert!(collisions < 4, "{collisions} collisions in 8000 points");
    }
}
