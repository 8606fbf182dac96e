//! A small Fx-style hasher for integer-dominated keys.
//!
//! The engine keys almost every map by dictionary-encoded [`crate::TermId`]s
//! (plain `u32`s) or short tuples of them. The standard library's SipHash is
//! collision-resistant but needlessly slow for that shape of key; the
//! `rustc-hash` crate is the usual remedy but is not available in this
//! environment, so we re-implement its ~30-line multiply-rotate scheme here
//! (the algorithm is public domain, originating in Firefox and rustc).
//!
//! Do **not** use these maps for attacker-controlled string keys in a
//! security-sensitive setting; dictionary ids and interned vocabulary are the
//! intended keys.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx scheme (a 64-bit "random odd
/// number", the same one rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate-xor-multiply hasher; state is a single 64-bit word.
#[derive(Default, Clone)]
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
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The multiply only carries upward, so the low bits of the state depend
    /// only on the low bits of the words written — for a packed key
    /// `root << 32 | d`, on `d` alone — while a hash table picks buckets by
    /// its low bits. A final rotate brings the well-mixed high bits down
    /// (as rustc-hash 2 does).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hash; the workhorse map of the whole workspace.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(42);
        b.write_u32(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(1);
        b.write_u32(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_stream_matches_chunked_path() {
        // 13 bytes exercises the 8-, 4-, and 1-byte paths in one call.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        let full = h.finish();
        assert_ne!(full, 0);
    }

    #[test]
    fn packed_keys_spread_over_the_low_bits() {
        // 4,096 keys `root << 32 | d` over only four values of `d`: the low
        // 16 bits a table picks buckets by must spread like random draws
        // (~3,970 distinct; they took four before the final rotate).
        let mut low = FxHashSet::default();
        for root in 0..1024u64 {
            for d in 0..4u64 {
                let mut h = FxHasher::default();
                h.write_u64(root << 32 | d);
                low.insert(h.finish() & 0xFFFF);
            }
        }
        assert!(
            low.len() > 3_800,
            "{} distinct low-16-bit values",
            low.len()
        );
    }

    #[test]
    fn map_and_set_usable_with_term_like_keys() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
    }
}
