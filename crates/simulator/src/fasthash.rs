//! A fast, deterministic hasher for the hot-path maps.
//!
//! The engines and the NAT emulation perform several map lookups per delivered message
//! (traffic ledger, NAT profiles, mapping tables). `std`'s default SipHash is
//! DoS-resistant but costs tens of nanoseconds per small key — significant when multiplied
//! by hundreds of thousands of messages per round — and its per-process random seed makes
//! iteration order vary between runs (nothing observable depends on map iteration order,
//! but a fixed seed removes one source of run-to-run noise). [`FastHasher`] is an
//! FxHash-style multiply-rotate-xor over 8-byte words with a splitmix-style finalizer:
//! ~5x faster on the word-sized keys these maps use. All keys come from the simulation
//! itself (node ids, addresses), never from untrusted input, so hash-flooding resistance
//! is not needed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (the golden-ratio-derived constant used by rustc's hasher).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher (the module documentation of `fasthash.rs` gives the
/// design).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Splitmix-style finalizer: spreads the multiply's high-bit entropy back into the
        // low bits that hashbrown uses for bucket selection.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

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
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// The deterministic `BuildHasher` for [`FastHashMap`]/`FastHashSet`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with `FastHasher`.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub(crate) type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_deterministically() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u64, 2u64)), hash_of(&(1u64, 2u64)));
        // No per-process randomness: rebuilding the hasher does not change values.
        let a = FastBuildHasher::default().hash_one(7u64);
        let b = FastBuildHasher::default().hash_one(7u64);
        assert_eq!(a, b);
    }

    #[test]
    fn nearby_keys_spread_across_low_bits() {
        // Dense node ids are the common key; the low bits (hashbrown's bucket index) must
        // not collapse for sequential ids.
        let mut low_bits = FastHashSet::default();
        for id in 0..256u64 {
            low_bits.insert(hash_of(&id) & 0xFF);
        }
        assert!(
            low_bits.len() > 128,
            "sequential ids collide too much in the low bits: {} distinct",
            low_bits.len()
        );
    }

    #[test]
    fn map_round_trips() {
        let mut map: FastHashMap<(u64, u64), u32> = FastHashMap::default();
        for i in 0..1_000u64 {
            map.insert((i, i * 3), i as u32);
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get(&(500, 1_500)), Some(&500));
        assert_eq!(map.get(&(500, 1_501)), None);
    }

    #[test]
    fn byte_stream_remainder_matches_explicit_word_writes() {
        // `write` consumes 8-byte words and zero-pads the tail; an equivalent sequence of
        // explicit word/byte writes must produce the same state, which pins the remainder
        // path (dropping the tail would diverge here).
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut via_stream = FastHasher::default();
        via_stream.write(&bytes);
        let mut via_words = FastHasher::default();
        via_words.write_u64(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        via_words.write_u8(bytes[8]);
        assert_eq!(via_stream.finish(), via_words.finish());
        // And the tail genuinely participates in the hash.
        let mut truncated = FastHasher::default();
        truncated.write(&bytes[..8]);
        assert_ne!(via_stream.finish(), truncated.finish());
    }
}
