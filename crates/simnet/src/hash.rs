//! A fast, deterministic hasher for the simulator's internal maps.
//!
//! Every key the simulation hashes is generated inside the program (node
//! ids, transaction ids, event keys, paths of a generated namespace), so the
//! collision resistance of std's randomly seeded SipHash-1-3 buys nothing
//! here, while it costs a noticeable share of host time on the per-event
//! path. [`FastHasher`] folds each word in with an Fx-style
//! rotate–xor–multiply step and finishes with the splitmix64 finalizer: the
//! multiply only carries differences upward, and the finalizer spreads keys
//! that differ only in their high bits (packed ids such as
//! `(node + 1) << 64 | counter`) over the low bits the table indexes with,
//! and vice versa.
//!
//! The hasher has no per-process seed, so iteration order of a [`FastMap`]
//! repeats across runs. Behaviour must still never depend on it: code that
//! emits messages from a map walk collects and sorts first.

use crate::retry::splitmix64;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed through [`FastHasher`]. Build with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Odd multiplier of the word step (the constant of rustc's `FxHasher`).
const K: u64 = 0x517C_C1B7_2722_0A95;

/// Word-at-a-time hasher: `h = (h.rotate_left(5) ^ word) * K` per word,
/// splitmix64 on [`finish`](Hasher::finish). Not collision resistant; use
/// it only for keys the program generates itself.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunk of 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn digest<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn known_answers() {
        // Fixed inputs give fixed digests, so no per-process seed can creep
        // back in (0 hashes to splitmix64(0), the finalizer's own known answer).
        assert_eq!(digest(&0u64), 0xE220_A839_7B1D_CDAF);
        assert_eq!(digest(&1u64), 0x35F5_76A4_E31C_F92B);
        assert_eq!(digest(&(7u32, 9u8)), 0xFDF2_C2EE_4000_CDDD);
        assert_eq!(digest(&(1u128 << 64 | 42)), 0x79AD_A765_DDD8_C12C);
        assert_eq!(digest("/user/alice/file-17"), 0x41F2_B52E_4A77_B312);
        assert_eq!(digest(&(3u64, String::from("dir"))), 0x2E25_445F_3BC9_5C17);
    }

    /// Distinct low-10-bit and top-7-bit values (the bucket index and the
    /// control byte of a swiss table) over a set of keys.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let mut low = [false; 1024];
        let mut top = [false; 128];
        for k in keys {
            let h = digest(&k);
            low[(h & 1023) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        (low.iter().filter(|&&b| b).count(), top.iter().filter(|&&b| b).count())
    }

    #[test]
    fn real_key_shapes_spread_over_low_and_top_bits() {
        const N: u64 = 10_000;
        // Packed `(node + 1) << 64 | counter` keys differ only above bit 64.
        let kernel = spread((0..N).map(|n| (u128::from(n) + 1) << 64 | 7));
        // Namenode hint-cache keys: parent inode id plus a component name.
        let hints = spread((0..N).map(|i| (i / 16, format!("f{}", i % 16))));
        // NDB row keys: (table id, (partition key, suffix bytes)).
        let rows =
            spread((0..N).map(|i| ((i % 7) as u16, (i / 32, format!("f{}", i % 32).into_bytes()))));
        for (shape, (low, top)) in [("kernel", kernel), ("hint", hints), ("row", rows)] {
            assert!(low >= 1000, "{shape}: low 10 bits hit only {low} of 1024");
            assert_eq!(top, 128, "{shape}: top 7 bits hit only {top} of 128");
        }
    }
}
