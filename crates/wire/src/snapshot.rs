//! Log snapshots for prefix compaction and catch-up transfer.
//!
//! The paper's §IV-D dynamic-membership model assumes rejoining sites catch
//! up from stable storage, but replaying the full history makes rejoin cost
//! (and every site's memory) grow linearly with run length. A [`Snapshot`]
//! captures everything a site needs about the decided prefix through
//! `last_index`: the boundary index/term (for log-matching at the horizon),
//! the membership in force, and an opaque state image. Leaders send it via
//! the protocols' `InstallSnapshot` messages whenever a follower's
//! `nextIndex` falls below the leader's first retained index; recovery
//! rebuilds a node from snapshot + retained log suffix.

use std::rc::Rc;

use bytes::Bytes;

use crate::{Configuration, EntryId, LogIndex, LogScope, SessionId, SessionTable, Term};

/// Version byte leading every encoded [`Snapshot`].
///
/// Snapshots are the one wire value that outlives a process (persisted by
/// `storage`, re-read on recovery), so their layout cannot change silently:
/// a record written by an older build must fail decoding *cleanly* rather
/// than have later fields read where earlier ones used to sit. Bump this
/// whenever any field of the snapshot encoding (including the embedded
/// [`SessionTable`]) changes shape.
///
/// History: the original, unversioned format (no `SessionSlot::last_active`
/// in the session table) began directly with the `LogScope` tag byte
/// (`0`/`1`), so starting the versioned format at `2` makes every
/// pre-versioning record decode to a tagged error instead of shifted
/// fields.
pub const SNAPSHOT_FORMAT_VERSION: u8 = 2;

/// Folds one committed `(index, id)` pair into a running commit digest —
/// the simulation's stand-in for applying an entry to a state machine.
/// Nodes that committed the same sequence hold the same digest, so a
/// snapshot's state image can be compared for identity in tests.
pub fn fold_commit_digest(digest: u64, index: LogIndex, id: EntryId) -> u64 {
    let mut x = digest
        ^ index.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ id.proposer.as_u64().wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ id.seq.wrapping_mul(0x94D0_49BB_1331_11EB);
    // splitmix64 finalizer: avalanche so consecutive indices diverge.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Folds one session-tagged write application into the commit digest, so
/// the digest covers the exactly-once *applied* state (not just the raw log
/// sequence): a duplicate that commits at a second index folds as a log
/// entry but never as a session application, and two replicas agree on
/// their digest only if they also agree on which seqs took effect.
pub fn fold_session_digest(digest: u64, session: SessionId, seq: u64) -> u64 {
    let mut x = digest
        ^ session.as_u64().wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ seq.wrapping_mul(0xA24B_AED4_963E_E407);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Folds one session **eviction** into the commit digest. Session expiry
/// (idle past `session_ttl` committed indices) removes applied state, so it
/// must be part of the digest the same way applications are: two replicas
/// agree on their digest only if they also agree on which sessions were
/// garbage-collected — which keeps snapshots taken before and after an
/// eviction distinguishable and provably convergent.
pub fn fold_session_evicted(digest: u64, session: SessionId) -> u64 {
    let mut x =
        digest ^ session.as_u64().wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0x5851_F42D_4C95_7F2D;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A compacted-prefix snapshot of one replicated log.
///
/// The `state` field is the application-state image covering every entry
/// through `last_index`. The simulation's state machine is a running
/// commit digest (see [`Snapshot::digest_state`]); a production embedding
/// would carry its real state-machine image here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Which log this snapshot compacts.
    pub scope: LogScope,
    /// The highest log index the snapshot covers.
    pub last_index: LogIndex,
    /// The term of the entry at `last_index`.
    pub last_term: Term,
    /// The configuration in force at `last_index` (an installing site must
    /// not depend on config entries that were compacted away).
    pub config: Configuration,
    /// Opaque application-state image through `last_index`.
    pub state: Bytes,
    /// The per-session exactly-once dedup table as of `last_index`. Part of
    /// applied state: without it, a client retry racing a leader restart
    /// across the compaction boundary could be applied twice at distinct
    /// indices (the restarted leader's in-log dedup ids were compacted
    /// away). Carrying the table in the snapshot fixes that by
    /// construction. Shared, not copied: one snapshot is cloned into the
    /// cache, the persist command, stable storage and every transfer, and
    /// its table never changes.
    pub sessions: Rc<SessionTable>,
}

impl Snapshot {
    /// Encodes a commit digest as a snapshot `state` image.
    pub fn digest_state(digest: u64) -> Bytes {
        Bytes::copy_from_slice(&digest.to_le_bytes())
    }

    /// Decodes the commit digest from `state`, if it is a digest image.
    pub fn state_digest(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.state.as_ref().try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn digest_roundtrips_through_state() {
        let s = Snapshot {
            scope: LogScope::Global,
            last_index: LogIndex(10),
            last_term: Term(3),
            config: Configuration::new([NodeId(1), NodeId(2)]),
            state: Snapshot::digest_state(0xDEAD_BEEF_1234_5678),
            sessions: Rc::default(),
        };
        assert_eq!(s.state_digest(), Some(0xDEAD_BEEF_1234_5678));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = EntryId::new(NodeId(1), 0);
        let b = EntryId::new(NodeId(2), 0);
        let ab = fold_commit_digest(fold_commit_digest(0, LogIndex(1), a), LogIndex(2), b);
        let ba = fold_commit_digest(fold_commit_digest(0, LogIndex(1), b), LogIndex(2), a);
        assert_ne!(ab, ba);
        assert_ne!(ab, 0);
    }

    #[test]
    fn session_digest_differs_from_commit_digest() {
        let s = SessionId::client(1);
        let a = fold_session_digest(0, s, 1);
        let b = fold_commit_digest(0, LogIndex(1), EntryId::new(NodeId(1), 1));
        assert_ne!(a, b, "session folds must not collide with commit folds");
        assert_ne!(a, fold_session_digest(0, s, 2));
        assert_ne!(a, fold_session_digest(0, SessionId::client(2), 1));
    }

    #[test]
    fn evicted_fold_is_distinct() {
        let s = SessionId::client(1);
        let e = fold_session_evicted(0, s);
        assert_ne!(e, 0);
        assert_ne!(e, fold_session_digest(0, s, 1), "eviction ≠ application");
        assert_ne!(e, fold_session_evicted(0, SessionId::client(2)));
        // Folding an eviction changes the digest even after applications.
        let applied = fold_session_digest(0, s, 1);
        assert_ne!(fold_session_evicted(applied, s), applied);
    }

    #[test]
    fn non_digest_state_is_none() {
        let s = Snapshot {
            scope: LogScope::Local,
            last_index: LogIndex(1),
            last_term: Term(1),
            config: Configuration::new([NodeId(1)]),
            state: Bytes::from_static(b"not a digest"),
            sessions: Rc::default(),
        };
        assert_eq!(s.state_digest(), None);
    }
}
