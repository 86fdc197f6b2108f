//! A fast hasher for the small keys the optimizer and certifier derive
//! from a function's checks (checks, range expressions, family pairs).
//!
//! This is the word-at-a-time scheme of rustc's `FxHasher`: each word is
//! mixed into the state with a rotate, an xor and one multiply. It is not
//! keyed, and the checks come from the program being compiled, which a
//! service client chooses. A program whose distinct checks were crafted
//! to collide makes each lookup cost up to the number of distinct checks,
//! so building a check universe costs up to the number of checks offered
//! times the number of distinct ones, where it otherwise costs the square
//! of the distinct ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
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
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(x: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of((3u32, 4u32)), hash_of((3u32, 4u32)));
        assert_ne!(hash_of((3u32, 4u32)), hash_of((4u32, 3u32)));
        // a tail shorter than a word still counts
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
    }
}
