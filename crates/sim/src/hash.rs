//! A small deterministic hasher for integer-keyed maps.
//!
//! The standard library's default `SipHash` is keyed per process and
//! built to resist collision attacks. Neither matters for the maps that
//! use this one: their keys are row numbers, request ids and cache-line
//! addresses of the simulated workload, and they are only point-queried —
//! never iterated — so the hash function cannot reach any output. A trace
//! crafted to collide could at worst slow a run down.
//!
//! [`IntHasher`] does one folded 64×64→128-bit multiply per integer
//! written: the high and low halves of the product are XORed, so both the
//! low bits (the bucket index) and the high bits (the control tag) depend
//! on every input bit. Keys that differ only in their high bits — ids
//! numbered with a power-of-two stride, line addresses — therefore still
//! spread.
//!
//! # Example
//!
//! ```
//! use fqms_sim::hash::IntMap;
//!
//! let mut rows: IntMap<u32, u32> = IntMap::default();
//! rows.insert(7, 0);
//! assert_eq!(rows.get(&7), Some(&0));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant (2^64 divided by the golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-seed multiply-fold hasher for integer keys; see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn mix(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IntHasher`]s (stateless, so every map hashes alike).
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` hashed with [`IntHasher`]. Create it with
/// `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        IntBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_width_consistent() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_eq!(hash(42u32), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Ids numbered with a power-of-two stride (one id space per
        // channel) must not pile into one bucket: the low 6 bits of the
        // hashes of 64 such keys take many distinct values.
        let mut buckets: Vec<u64> = (0..64u64).map(|i| hash(i << 12) & 63).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 32, "only {} of 64 buckets", buckets.len());
    }

    #[test]
    fn map_round_trips() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
        assert_eq!(m.remove(&4096), Some(1));
        assert!(!m.contains_key(&4096));
    }
}
