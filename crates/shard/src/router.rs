//! Key → group routing over hash ranges, with consensus-backed rebalance.
//!
//! The router is a sorted table of half-open ranges over the full `u64`
//! hash space: entry `i` owns `[start_i, start_{i+1})` (the last entry
//! wraps to `u64::MAX` inclusive). Every key hashes to exactly one range,
//! so assignment is **total**; the table is a pure value, so assignment is
//! **deterministic**; and a [`ReconfigOp`] touches exactly one range, so
//! every key outside the reconfigured range keeps its group — assignment
//! is **stable** under splits and moves (the property tests in
//! `tests/router_props.rs` pin all three).
//!
//! Rebalance ops are not applied directly: they are encoded as a
//! magic-prefixed write payload and committed through the *owning* group's
//! log ([`ReconfigOp::source_group`]), so every replica applies the same
//! op at the same point in that group's linearizable history. Per-range
//! ops thereby serialize through the range's own group; concurrent ops on
//! different ranges commute because their ranges are disjoint.

use bytes::Bytes;
use wire::{Decoder, Encoder, GroupId};

/// Magic prefix marking a committed write payload as a routing reconfig
/// op rather than application data. Client payloads are either empty or
/// drawn from a payload RNG, so an accidental 12-byte match does not occur
/// in practice (and would only misroute a synthetic benchmark value).
pub const RECONFIG_MAGIC: &[u8; 12] = b"\0SHARD-CFG\x01\x7f";

/// FNV-1a over the key bytes, finished with a splitmix64 avalanche so
/// short sequential keys (the benchmark encodes key ids as 8 big-endian
/// bytes) spread over the whole `u64` space instead of clustering.
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A routing-table change, committed through the owning group's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigOp {
    /// Split the range containing `at`: hashes in `[at, end)` move from
    /// `group` to the (fresh) `new_group`; `[start, at)` stays put.
    SplitGroup {
        /// The current owner of the range containing `at`.
        group: GroupId,
        /// The split point (must be strictly inside the range).
        at: u64,
        /// The group receiving the upper half.
        new_group: GroupId,
    },
    /// Reassign the whole range starting at boundary `start` to `to`.
    MoveRange {
        /// An existing range boundary.
        start: u64,
        /// The new owner.
        to: GroupId,
    },
}

/// Why a [`ReconfigOp`] was rejected by [`ShardRouter::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigError {
    /// The named source group does not own the range containing `at`.
    WrongOwner,
    /// The split point equals the range start (lower half would be empty).
    EmptySplit,
    /// `new_group` already owns a range (splits must mint fresh groups).
    GroupExists,
    /// `start` is not an existing range boundary.
    NoSuchRange,
    /// The op is a no-op (moving a range to its current owner).
    NoOp,
}

impl ReconfigOp {
    /// The group whose log this op must commit through: the current owner
    /// of the affected range under `router`'s table. `None` when the op
    /// does not validate against the table (stale op — drop it).
    pub fn source_group(&self, router: &ShardRouter) -> Option<GroupId> {
        match *self {
            ReconfigOp::SplitGroup { group, at, .. } => {
                (router.group_for_hash(at) == group).then_some(group)
            }
            ReconfigOp::MoveRange { start, .. } => router.owner_of_boundary(start),
        }
    }

    /// Encodes the op as a magic-prefixed write payload.
    pub fn encode_payload(&self) -> Bytes {
        let mut e = Encoder::new();
        for &b in RECONFIG_MAGIC {
            e.put_u8(b);
        }
        match *self {
            ReconfigOp::SplitGroup {
                group,
                at,
                new_group,
            } => {
                e.put_u8(1);
                e.put_u32(group.as_u32());
                e.put_u64(at);
                e.put_u32(new_group.as_u32());
            }
            ReconfigOp::MoveRange { start, to } => {
                e.put_u8(2);
                e.put_u64(start);
                e.put_u32(to.as_u32());
            }
        }
        e.finish()
    }

    /// Decodes a committed write payload, `None` when it is not a
    /// reconfig op (no magic prefix, or malformed after the prefix).
    pub fn decode_payload(data: &[u8]) -> Option<ReconfigOp> {
        let rest = data.strip_prefix(&RECONFIG_MAGIC[..])?;
        let mut d = Decoder::new(rest);
        let op = match d.u8().ok()? {
            1 => ReconfigOp::SplitGroup {
                group: GroupId(d.u32().ok()?),
                at: d.u64().ok()?,
                new_group: GroupId(d.u32().ok()?),
            },
            2 => ReconfigOp::MoveRange {
                start: d.u64().ok()?,
                to: GroupId(d.u32().ok()?),
            },
            _ => return None,
        };
        d.finish().ok()?;
        Some(op)
    }
}

/// The hash-range routing table: `ranges[i]` owns `[ranges[i].0,
/// ranges[i+1].0)`; the first start is always 0, so coverage is total.
///
/// # Examples
///
/// ```
/// use shard::{key_hash, ShardRouter};
///
/// let router = ShardRouter::uniform(16);
/// let g = router.assign(b"alpha");
/// assert_eq!(router.group_for_hash(key_hash(b"alpha")), g);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    ranges: Vec<(u64, GroupId)>,
    epoch: u64,
}

impl ShardRouter {
    /// A table splitting the hash space into `groups` equal ranges owned
    /// by `GroupId(0..groups)`. `groups` must be ≥ 1.
    pub fn uniform(groups: u32) -> Self {
        assert!(groups >= 1, "router needs at least one group");
        let step = if groups == 1 {
            0
        } else {
            u64::MAX / groups as u64
        };
        let ranges = (0..groups).map(|g| (step * g as u64, GroupId(g))).collect();
        ShardRouter { ranges, epoch: 0 }
    }

    /// Number of ranges (≥ number of distinct groups).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The sorted `(start_hash, owner)` table.
    pub fn ranges(&self) -> &[(u64, GroupId)] {
        &self.ranges
    }

    /// Monotone table version: bumped once per applied op.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The distinct groups currently owning at least one range, in
    /// ascending id order.
    pub fn groups(&self) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> = self.ranges.iter().map(|&(_, g)| g).collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// The owner of the range containing `hash`. Total: every hash maps.
    pub fn group_for_hash(&self, hash: u64) -> GroupId {
        let i = self.ranges.partition_point(|&(start, _)| start <= hash);
        // partition_point ≥ 1 because ranges[0].0 == 0.
        self.ranges[i - 1].1
    }

    /// Routes a key: hash then look up.
    pub fn assign(&self, key: &[u8]) -> GroupId {
        self.group_for_hash(key_hash(key))
    }

    /// The owner of the range whose start is exactly `start`, if any.
    pub fn owner_of_boundary(&self, start: u64) -> Option<GroupId> {
        self.ranges
            .binary_search_by_key(&start, |&(s, _)| s)
            .ok()
            .map(|i| self.ranges[i].1)
    }

    /// Applies a validated op, bumping the epoch. Rejected ops leave the
    /// table (and epoch) untouched — replicas applying a stale op from a
    /// re-delivered commit simply drop it.
    pub fn apply(&mut self, op: &ReconfigOp) -> Result<(), ReconfigError> {
        match *op {
            ReconfigOp::SplitGroup {
                group,
                at,
                new_group,
            } => {
                let i = self.ranges.partition_point(|&(start, _)| start <= at) - 1;
                if self.ranges[i].1 != group {
                    return Err(ReconfigError::WrongOwner);
                }
                if self.ranges[i].0 == at {
                    return Err(ReconfigError::EmptySplit);
                }
                if self.ranges.iter().any(|&(_, g)| g == new_group) {
                    return Err(ReconfigError::GroupExists);
                }
                self.ranges.insert(i + 1, (at, new_group));
            }
            ReconfigOp::MoveRange { start, to } => {
                let i = self
                    .ranges
                    .binary_search_by_key(&start, |&(s, _)| s)
                    .map_err(|_| ReconfigError::NoSuchRange)?;
                if self.ranges[i].1 == to {
                    return Err(ReconfigError::NoOp);
                }
                self.ranges[i].1 = to;
            }
        }
        self.epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let r = ShardRouter::uniform(4);
        assert_eq!(r.group_for_hash(0), GroupId(0));
        assert_eq!(r.group_for_hash(u64::MAX), GroupId(3));
        assert_eq!(r.groups().len(), 4);
    }

    #[test]
    fn single_group_owns_everything() {
        let r = ShardRouter::uniform(1);
        for h in [0, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(r.group_for_hash(h), GroupId(0));
        }
    }

    #[test]
    fn split_moves_only_upper_half() {
        let mut r = ShardRouter::uniform(1);
        let op = ReconfigOp::SplitGroup {
            group: GroupId(0),
            at: 1 << 63,
            new_group: GroupId(1),
        };
        assert_eq!(op.source_group(&r), Some(GroupId(0)));
        r.apply(&op).unwrap();
        assert_eq!(r.group_for_hash((1 << 63) - 1), GroupId(0));
        assert_eq!(r.group_for_hash(1 << 63), GroupId(1));
        assert_eq!(r.epoch(), 1);
    }

    #[test]
    fn split_validation() {
        let mut r = ShardRouter::uniform(2);
        let wrong_owner = ReconfigOp::SplitGroup {
            group: GroupId(1),
            at: 1,
            new_group: GroupId(2),
        };
        assert_eq!(r.apply(&wrong_owner), Err(ReconfigError::WrongOwner));
        let empty = ReconfigOp::SplitGroup {
            group: GroupId(0),
            at: 0,
            new_group: GroupId(2),
        };
        assert_eq!(r.apply(&empty), Err(ReconfigError::EmptySplit));
        let exists = ReconfigOp::SplitGroup {
            group: GroupId(0),
            at: 7,
            new_group: GroupId(1),
        };
        assert_eq!(r.apply(&exists), Err(ReconfigError::GroupExists));
        assert_eq!(r.epoch(), 0);
    }

    #[test]
    fn move_range_reassigns_boundary() {
        let mut r = ShardRouter::uniform(2);
        let start = r.ranges()[1].0;
        r.apply(&ReconfigOp::MoveRange {
            start,
            to: GroupId(0),
        })
        .unwrap();
        assert_eq!(r.group_for_hash(u64::MAX), GroupId(0));
        assert_eq!(
            r.apply(&ReconfigOp::MoveRange {
                start: start + 1,
                to: GroupId(0)
            }),
            Err(ReconfigError::NoSuchRange)
        );
    }

    #[test]
    fn payload_roundtrip_and_magic_gate() {
        for op in [
            ReconfigOp::SplitGroup {
                group: GroupId(3),
                at: 0xdead_beef_0000_0001,
                new_group: GroupId(9),
            },
            ReconfigOp::MoveRange {
                start: 42,
                to: GroupId(7),
            },
        ] {
            let payload = op.encode_payload();
            assert_eq!(ReconfigOp::decode_payload(&payload), Some(op));
        }
        assert_eq!(ReconfigOp::decode_payload(b""), None);
        assert_eq!(ReconfigOp::decode_payload(b"ordinary write"), None);
        // Magic with trailing garbage is not an op either.
        let mut bad = RECONFIG_MAGIC.to_vec();
        bad.push(9);
        assert_eq!(ReconfigOp::decode_payload(&bad), None);
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        let r = ShardRouter::uniform(16);
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..256 {
            seen.insert(r.assign(&k.to_be_bytes()));
        }
        assert!(
            seen.len() >= 12,
            "sequential keys clustered: {}",
            seen.len()
        );
    }
}
