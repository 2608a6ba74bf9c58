//! A fast hasher for maps keyed by the integer ids in [`crate::ids`].
//!
//! `std`'s default SipHash costs tens of nanoseconds per probe and guards
//! against adversarial keys the system never sees: partition, client and
//! site ids are internal. [`IntHasher`] hashes one integer with a single
//! 64 × 64 → 128-bit multiply by an odd constant, folding the high half of the
//! product into the low half. The fold matters for packed
//! [`crate::ids::partition_id`]s: a plain multiply only carries bits
//! upward, so the table bits (48..63) would never reach the low bits a
//! hash table indexes by, and equal partition indexes of different tables
//! would share buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with well-mixed bits (multiplying by it is a
/// bijection on `u64`). Deliberately not 2⁶⁴/φ: the stats shards and
/// client stripes pick by the top bits of `id × 2⁶⁴/φ`, and hash tables
/// tag their slots with a hash's top bits, so sharing that multiplier would
/// give every key of one shard nearly the same tag.
const K: u64 = 0xF135_7AEA_2E62_A9C5;

/// Multiply-and-fold hasher for integer keys (see the module doc).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integer ids, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` of integer ids, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{partition_id, PartitionId, TableId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildIntHasher::default().hash_one(value)
    }

    #[test]
    fn table_bits_reach_the_low_bits() {
        // Partition `i` of tables 0..8: every pair must differ in the low
        // byte a small table indexes by, or they would share buckets.
        for index in [0u64, 1, 7, 1000] {
            let low: HashSet<u64> = (0..8)
                .map(|t| hash_of(partition_id(TableId::new(t), index)) & 0xFF)
                .collect();
            assert!(low.len() >= 7, "index {index}: {low:?}");
        }
    }

    #[test]
    fn sequential_ids_fill_a_small_table_evenly() {
        // 16 per bucket on average; a uniform random hash stays within
        // four standard deviations (±16) of that.
        let mut buckets = [0u32; 64];
        for i in 0..64 * 16 {
            buckets[(hash_of(PartitionId::new(i)) % 64) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&b| (4..=32).contains(&b)),
            "{buckets:?}"
        );
    }

    #[test]
    fn maps_keyed_by_ids_behave_like_std() {
        let mut map: IntMap<PartitionId, u64> = IntMap::default();
        for i in 0..1000 {
            *map.entry(partition_id(TableId::new(i % 9), i as u64 / 9))
                .or_default() += 1;
        }
        assert_eq!(map.len(), 1000);
        assert!(map.values().all(|&c| c == 1));
    }
}
