//! A word-at-a-time hasher for the simulator's hot tables.
//!
//! The eBPF verifier keys its prune and path sets by 504-byte
//! abstract states, the program-load cache keys programs by their
//! full structural shape, and the anonymous-memory registry is
//! bumped per owner on every anonymous fault. (Guest page tables and
//! the page-cache index are dense arrays and hash nothing.) `std`'s
//! default SipHash costs more than the lookups it serves on all of
//! them. This hasher
//! folds each 64-bit word into the state with one rotate, xor and
//! multiply (the FxHash step) and finishes with a rotation, so the
//! high bits the tables probe with depend on every input word. It is
//! not DoS-resistant, which is fine here: every key is generated by
//! the simulator itself and compared exactly after its hash matches,
//! so a collision only costs time.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The word-at-a-time hasher: one rotate, xor and multiply per
/// 64-bit word, not DoS-resistant (keys must come from the program).
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(buf) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for hash maps and sets keyed through [`WordHasher`].
pub type WordState = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = WordHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        assert_ne!(hash_of([0u8; 3].as_slice()), hash_of([0u8; 4].as_slice()));
    }

    #[test]
    fn is_deterministic() {
        assert_eq!(hash_of("shape"), hash_of("shape"));
    }
}
