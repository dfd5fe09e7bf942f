//! The one hasher every simulator table uses: a seedless multiply-rotate
//! word hash over the small integer ids the stack keys its tables by
//! (`NodeId`, `EntryId`, log indices, `(session, seq)` pairs).
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-instance
//! random seed. Neither property serves a deterministic simulator: SipHash
//! costs more than the table probe it feeds, and the seed makes a table's
//! layout — and so when it grows and how much it allocates — differ between
//! two runs of the same schedule. [`IdHasher`] has no seed, so the same keys
//! build the same table in every process: allocation counts repeat per
//! seed, like everything else the simulation decides.
//!
//! It is not collision-resistant. Keys an adversary chooses (a real socket
//! feeding peer ids into these tables) need a keyed hasher or a size bound.
//!
//! Each word is folded in as `(h.rotate_left(5) ^ word) * K`. A multiply
//! carries entropy upward only, so [`Hasher::finish`] folds the high half
//! into the low one: hashbrown picks the bucket from the low bits and a
//! 7-bit tag from the top ones, and keys whose low bits repeat across the
//! set (assigned session ids: a per-node counter below the node id in bits
//! 32..) would otherwise share buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`IdHasher`]; build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` under [`IdHasher`]; build one with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// An odd 64-bit constant with well-spread bits (the golden-ratio one).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The seedless id hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// No seed: the same key hashes to the same value in every process, so
    /// every table has the same layout (and growth points) run to run.
    #[test]
    fn finish_is_pinned() {
        assert_eq!(hash(7u64), 0x5384_5412_288d_3081);
        assert_eq!(hash((3u64, 1_365u64)), 0xbd5a_8756_b773_8710);
    }

    /// How many of the 4,096 bucket indices (low 12 bits) and of the 128
    /// hashbrown tags (top 7 bits) some ~4,096 hashes reach.
    fn spread(hashes: impl Iterator<Item = u64>) -> (usize, usize) {
        let hashes: Vec<u64> = hashes.collect();
        let low: IdSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let tag: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), tag.len())
    }

    /// Each key shape the stack uses reaches most buckets and most tags, as
    /// a uniform hash would (~63 % of 4,096 buckets, all 128 tags, for
    /// 4,096 keys). Assigned sessions need the fold: without it their low
    /// bits see only the counter, and the five nodes share 819 buckets.
    #[test]
    fn ids_spread_over_buckets_and_tags() {
        let shapes = [
            ("sequential ids", spread((0..4_096u64).map(hash))),
            (
                "3 proposers x 1,365 seqs",
                spread((0..3u64).flat_map(|p| (0..1_365u64).map(move |s| hash((p, s))))),
            ),
            (
                "read ids",
                spread((0..4_096u64).map(|n| hash(1u64 << 63 | n))),
            ),
            (
                "5 nodes x 819 assigned sessions",
                spread(
                    (0..5u64).flat_map(|n| (0..819u64).map(move |c| hash(1 << 63 | n << 32 | c))),
                ),
            ),
        ];
        for (shape, (low, tag)) in shapes {
            assert!(low > 2_048, "{shape}: {low} of 4,096 bucket indices");
            assert!(tag > 96, "{shape}: {tag} of 128 tags");
        }
    }
}
