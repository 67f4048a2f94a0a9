//! The workspace's hasher for the small keys the controller assigns.
//!
//! Every hashed index on the per-packet and per-flow-mod paths is keyed by
//! a few bytes: a VMAC, a port, a next-hop address, a tag. [`WordHasher`]
//! takes a key a word at a time — one add and one multiply per integer
//! written, and per 8-byte chunk of bytes — where FNV multiplies once per
//! byte. It has no per-process seed: the same hashes, and map order, in
//! every run and on every platform. HashDoS is no concern for keys nobody
//! outside chooses. A multiply carries bits only upwards, and tables take
//! the bucket from the low bits, where VMACs differing only in their FEC
//! id (bits 16–47 of the little-endian word) would all collide: so
//! [`finish`](Hasher::finish) rotates the product's bits from 44 up, which
//! every input bit reaches, down to the bottom.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiplicative hasher (see the module documentation).
#[derive(Clone, Copy, Default, Debug)]
pub struct WordHasher(u64);

/// A [`HashMap`] hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A [`HashSet`] hashed by [`WordHasher`].
pub type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.wrapping_add(word)).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(20)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.mix(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAddr, ParticipantId, PortId};
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(key)
    }

    fn low_bytes(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|h| h as u8).collect::<HashSet<_>>().len()
    }

    #[test]
    fn keys_that_differ_in_one_byte_spread_over_the_low_bits() {
        // 256 random draws would hit ≈ 162 of 256 values; a multiply
        // without the fold hits one for the VMACs.
        let vmacs = low_bytes((0..256).map(|fec| hash(MacAddr::vmac(fec))));
        let ports = low_bytes((1..=256).map(|p| hash(PortId::Phys(ParticipantId(p), 1))));
        assert!(vmacs >= 200, "VMACs: {vmacs} distinct low bytes");
        assert!(ports >= 200, "ports: {ports} distinct low bytes");
    }

    /// A per-process seed, or a path that differs by platform, changes
    /// these.
    #[test]
    fn hashes_are_the_same_in_every_process() {
        assert_eq!(hash(MacAddr::vmac(7)), 0x3351_c54c_b489_7a99);
        assert_eq!(
            hash(PortId::Phys(ParticipantId(3), 1)),
            0xc71d_49fb_e902_daca
        );
        assert_eq!(hash(0xac10_0001_u32), 0xb252_6b2a_9c5f_702a);
    }
}
