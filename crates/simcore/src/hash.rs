//! A small deterministic hasher for integer-keyed maps.
//!
//! `std`'s default `HashMap` hashes with SipHash-1-3 behind a per-process
//! random key: DoS-resistant, and several times the cost of the lookup it
//! guards when the key is a packed integer the simulator made itself. The
//! maps on the per-transfer path (parameter-server aggregation counts,
//! shard placement, xray's analysis tables) use [`FastMap`] instead: one
//! widening multiply per word written, no random state. No map
//! that uses it lets iteration order reach an output, so the hasher
//! changes speed only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Folded-multiply word hasher: each word is mixed in by a 64×64→128-bit
/// multiply whose halves are xored together, so every input bit reaches
/// every output bit, low and high. Not DoS-resistant: meant for keys the
/// simulator generates itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let p = ((self.hash ^ word) as u128) * (K as u128);
        self.hash = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_fields() {
        assert_eq!(hash_of((3u64, 7u32)), hash_of((3u64, 7u32)));
        assert_ne!(hash_of((3u64, 7u32)), hash_of((7u64, 3u32)));
        assert_ne!(hash_of(1u64 << 40), hash_of(1u64 << 41));
    }

    #[test]
    fn high_field_keys_spread_over_low_bits() {
        // Keys that differ only above bit 40 (a packed worker field)
        // must not share the low hash bits a table indexes by.
        let lows: std::collections::BTreeSet<u64> =
            (0..64u64).map(|w| hash_of(w << 40) & 0xff).collect();
        assert!(lows.len() > 32, "only {} distinct low bytes", lows.len());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<(u64, u32), usize> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, (i % 7) as u32), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i, (i % 7) as u32)] == i as usize));
    }
}
