//! Offline stand-in for `rustc-hash`: the Fx hash algorithm (the same
//! multiply-xor mix used upstream) behind the usual `FxHashMap` /
//! `FxHashSet` aliases.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The Fx product, rotated as upstream rustc-hash 2 does: a
    /// multiplication leaves the entropy of its input in the *high* bits
    /// (the low `k` bits of the product depend only on the low `k` bits
    /// of the key), and the std table picks its bucket from the low
    /// ones. Unrotated, keys that share their low bits — block-aligned
    /// pointers — share a handful of buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    /// 512-byte-aligned keys (what a block-aligned `DPtr` is) must spread
    /// over the low bits the std table indexes by.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let low: HashSet<u64> = (0..4096u64)
            .map(|i| build.hash_one(i << 9) & 0xfff)
            .collect();
        assert!(
            low.len() >= 2048,
            "4096 aligned keys fell into {} of 4096 low-bit values",
            low.len()
        );
    }
}
