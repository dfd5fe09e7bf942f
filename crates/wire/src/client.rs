//! The typed client-facing request/response vocabulary.
//!
//! The paper evaluates its protocols with anonymous fire-and-forget
//! proposals; a production system needs a real client contract. This module
//! defines it, uniformly for classic Raft, Fast Raft, and C-Raft:
//!
//! - a client opens a [`SessionId`] and issues [`ClientRequest`]s, each
//!   named by a write `seq` or a read id;
//! - **writes** are exactly-once: every replica maintains a [`SessionTable`]
//!   (session → applied seqs + result index) as part of *applied state*, so
//!   a retried `seq` — across leader changes, crashes, and snapshot
//!   compaction — is applied at most once. The table travels inside
//!   [`crate::Snapshot`] and is folded into the commit digest;
//! - **reads** carry a [`Consistency`] level: [`Consistency::Linearizable`]
//!   runs a ReadIndex round at the leader (leadership confirmed by a
//!   heartbeat quorum before answering at the commit floor), while
//!   [`Consistency::StaleLocal`] is served immediately from any site's
//!   commit floor;
//! - every request is answered by a typed [`ClientOutcome`], surfaced to the
//!   embedding through [`crate::Observation::ClientResponse`].
//!
//! A session must have at most one request in flight. Its writes (and its
//! registration) carry `seq`s 1, 2, 3, … with no gaps; its reads carry
//! [`read_id`]s from a disjoint space and never consume a `seq`, so every
//! write seq is eventually applied and the [`SessionSlot`] floor keeps up.
//! Retries re-send the *same* `seq` or read id. The client side of these
//! rules is kept once, in [`crate::ClientLane`], which every host's
//! closed-loop clients use. C-Raft reuses the same
//! machinery at its **global** level: batch items carry their originating
//! `(session, seq)`, and the global log applies batches item-wise through
//! its own table — so a write whose item lands in two batches (a successor
//! cluster leader re-batching after a crash) still applies globally exactly
//! once. Global batches from one cluster can commit out of order, so one
//! session's seqs may *apply* out of order there; the table's
//! floor-plus-sparse-window representation handles that.

use core::fmt;

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::{LogIndex, LogScope, NodeId, SparseLog, Term};

/// The Raft §8 currency condition for door-level expiry verdicts: `true`
/// when a node with this `log`, `commit_index`, and `current_term` has
/// committed an entry of its own term. Application is synchronous with the
/// commit scan in both protocols, so from that point on the node's
/// [`SessionTable`] provably covers every write committed anywhere and a
/// door-level [`SessionTable::is_expired_retry`] verdict is exact; before
/// it, the table may merely *lag* the commit sequence and "expired" can be
/// a false positive for a live session. One shared predicate so the
/// condition cannot drift between the protocols' doors; callers add their
/// own leadership check.
pub fn session_state_current(log: &SparseLog, commit_index: LogIndex, current_term: Term) -> bool {
    log.term_at(commit_index) == current_term
}

/// Identifier of a client session.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The reserved "assign me one" id a [`ClientOp::Register`] carries when
    /// the client wants the server to pick the session id.
    pub const UNASSIGNED: SessionId = SessionId(0);

    /// A client session with the given raw id.
    pub const fn client(id: u64) -> Self {
        SessionId(id)
    }

    /// A server-assigned session id, derived at the registering gateway from
    /// its node id and a local counter. The top bit partitions the space so
    /// assigned ids can never collide with client-chosen ones (which would
    /// silently merge two sessions' dedup windows).
    pub const fn assigned(node: NodeId, counter: u64) -> Self {
        SessionId((1 << 63) | (node.as_u64() << 32) | (counter & 0xffff_ffff))
    }

    /// `true` for the reserved server-assign sentinel.
    pub const fn is_unassigned(self) -> bool {
        self.0 == 0
    }

    /// The raw id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The consistency level of a client read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Linearizable **with respect to the log it reads**: the answer
    /// reflects every operation that completed *on that log* before the
    /// read was issued. Served by the leader after a ReadIndex round
    /// (leadership confirmed by a heartbeat quorum). In C-Raft this is a
    /// **global** read, confirmed through the global engine and answering
    /// at the global commit floor — note that C-Raft writes are
    /// acknowledged at *local* commit (§V-A), before their batch reaches
    /// the global log, so a freshly acked write may not yet be visible to
    /// a global read; clients needing global read-your-writes must wait
    /// for the write's batch to commit globally.
    Linearizable,
    /// Possibly stale: served immediately from the receiving site's local
    /// commit floor, with no coordination.
    StaleLocal,
    /// Possibly stale, **global scope**: served immediately from the
    /// receiving site's view of the *global* commit floor, with no
    /// coordination. In C-Raft this is the cluster's `global_commit_seen`
    /// — every globally committed batch the cluster has observed — so the
    /// answer reflects global state without paying the wide-area round a
    /// [`Consistency::Linearizable`] read costs ("read your cluster's view
    /// of the world"). The floor is monotone per site but may lag the true
    /// global floor by replication delay. In the single-level protocols the
    /// only log *is* the global log, so this is identical to
    /// [`Consistency::StaleLocal`].
    StaleGlobal,
}

/// What a client asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// Replicate this value exactly once.
    Write(Bytes),
    /// Report the commit floor at the requested consistency level.
    Read(Consistency),
    /// Explicitly open the session: a committed no-value op that consumes
    /// `seq` **1**, separating "session exists" from "first write". A
    /// registered session's first write is therefore seq 2, which closes
    /// the expiry boundary documented on
    /// [`SessionTable::is_expired_retry`]: every post-eviction retry of a
    /// registered session has `seq > 1` and is detectably stale, so no
    /// write is ever silently re-applied. Requesting it with session id
    /// **0** asks the server to assign one (returned in
    /// [`ClientOutcome::Registered`]); a *retry* of an id-0 registration
    /// cannot be deduplicated (the client has no identity yet) and may
    /// open a second, unused session — harmless, and bounded by the
    /// session TTL.
    Register,
}

/// The bit that marks a request id as a read id. Write seqs count up from
/// 1 and stay below it; read ids always carry it — the same top-bit
/// partition [`SessionId::assigned`] uses for session ids.
const READ_ID_BIT: u64 = 1 << 63;

/// The request id of a session's `ordinal`-th read. Reads are numbered by
/// their own per-session counter and tagged into a space disjoint from
/// write seqs, so a read never consumes a seq (which would leave a hole
/// that pins the session's dedup floor) and no `(session, id)` key can name
/// both a read and a write.
pub const fn read_id(ordinal: u64) -> u64 {
    READ_ID_BIT | ordinal
}

/// `true` when `seq` is a read id (see [`read_id`]), not a write seq.
pub const fn is_read_id(seq: u64) -> bool {
    seq & READ_ID_BIT != 0
}

/// One client request: a session-scoped, retry-safe operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientRequest {
    /// The issuing session.
    pub session: SessionId,
    /// The request id; retries reuse it. For writes and registrations, the
    /// session's write seq: 1, 2, 3, … without gaps. For reads, a
    /// [`read_id`], which consumes no seq.
    pub seq: u64,
    /// The operation.
    pub op: ClientOp,
}

impl ClientRequest {
    /// A write request.
    pub fn write(session: SessionId, seq: u64, data: Bytes) -> Self {
        ClientRequest {
            session,
            seq,
            op: ClientOp::Write(data),
        }
    }

    /// The session's `ordinal`-th read; its id is [`read_id`]`(ordinal)`.
    pub fn read(session: SessionId, ordinal: u64, consistency: Consistency) -> Self {
        ClientRequest {
            session,
            seq: read_id(ordinal),
            op: ClientOp::Read(consistency),
        }
    }

    /// A session-registration request (always seq 1 — registration *is*
    /// the session's first operation; session 0 asks the server to assign
    /// an id).
    pub fn register(session: SessionId) -> Self {
        ClientRequest {
            session,
            seq: 1,
            op: ClientOp::Register,
        }
    }
}

/// The typed answer to a [`ClientRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The write was applied for the first time at `index`.
    Committed {
        /// Where the write landed in the log.
        index: LogIndex,
    },
    /// The write was already applied by an earlier attempt — the retry was
    /// suppressed. `first_index` is the original application index when the
    /// replica still remembers it, [`LogIndex::ZERO`] for ancient seqs.
    Duplicate {
        /// Where the first application landed (ZERO if unknown).
        first_index: LogIndex,
    },
    /// The read succeeded: the caller may read state through `commit_floor`
    /// of the `scope` log at the requested consistency.
    ReadOk {
        /// Which log the floor belongs to (Global; Local for C-Raft's
        /// stale local reads).
        scope: LogScope,
        /// The commit floor the answer reflects.
        commit_floor: LogIndex,
    },
    /// The session registration committed: the session named here (the
    /// requested one, or the server-assigned id for requests with session
    /// 0) is open with seq 1 consumed — its first write must use seq 2.
    Registered {
        /// The open session (authoritative: may differ from the request's
        /// when the server assigned it).
        session: SessionId,
        /// Where the registration landed in the log.
        index: LogIndex,
    },
    /// The receiving node cannot serve the request; retry against
    /// `leader_hint` (when `Some`) or any member (when `None`).
    Redirect {
        /// The believed current leader.
        leader_hint: Option<NodeId>,
    },
    /// Transient condition (election in progress, leadership lost mid-read,
    /// fresh leader without a committed entry of its term): retry the same
    /// `(session, seq)` after a backoff.
    Retry,
    /// **Terminal**: the session sat idle past the configured TTL and its
    /// exactly-once history was garbage-collected; this `(session, seq)`
    /// can no longer be deduplicated and was *not* (re)applied by the
    /// answering path. Re-sending the same `(session, seq)` will fail the
    /// same way — the client must open a fresh session (and, knowing the
    /// op was not applied by this request, may resubmit it there).
    SessionExpired,
}

impl ClientOutcome {
    /// `true` when the operation is finished (no retry needed).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, ClientOutcome::Redirect { .. } | ClientOutcome::Retry)
    }

    /// Short tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientOutcome::Committed { .. } => "committed",
            ClientOutcome::Duplicate { .. } => "duplicate",
            ClientOutcome::ReadOk { .. } => "read_ok",
            ClientOutcome::Registered { .. } => "registered",
            ClientOutcome::Redirect { .. } => "redirect",
            ClientOutcome::Retry => "retry",
            ClientOutcome::SessionExpired => "session_expired",
        }
    }
}

/// The outcome of applying a session-tagged operation to a [`SessionTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionApply {
    /// First application: the operation took effect.
    Applied,
    /// The seq was already applied; the operation must be skipped.
    Duplicate {
        /// Where the first application landed (ZERO if unknown).
        first_index: LogIndex,
    },
}

/// Per-session applied state: which seqs have been applied, and where.
///
/// Seqs at or below `floor_seq` are all applied; `above` holds applied seqs
/// beyond the floor (out-of-order application, which only C-Raft's global
/// log exhibits, when one cluster's batches commit out of order). Reads
/// consume no seq, so a session's write seqs have no gaps and every one of
/// them applies: the floor advances on each in-order write, and the window
/// stays bounded by the session's in-flight depth — for global tables, by
/// its cluster's batches in flight.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionSlot {
    /// Highest seq S such that all of `1..=S` are applied (0 = none).
    pub floor_seq: u64,
    /// Log index where `floor_seq` was applied (ZERO if unknown/ancient).
    pub floor_index: LogIndex,
    /// Applied seqs above the floor, with their application indices.
    pub above: BTreeMap<u64, LogIndex>,
    /// Commit index of the most recent apply touching this session
    /// (first applications *and* committed duplicates). Idleness for
    /// session expiry is measured against this in **log distance**, the
    /// deterministic stand-in for wall-clock time: every replica sees the
    /// same committed sequence, so every replica evicts identically.
    pub last_active: LogIndex,
}

impl SessionSlot {
    /// `true` if `seq` has been applied.
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.floor_seq || self.above.contains_key(&seq)
    }

    /// The application index of `seq`, if applied and still remembered.
    fn first_index_of(&self, seq: u64) -> LogIndex {
        if seq == self.floor_seq {
            self.floor_index
        } else {
            self.above.get(&seq).copied().unwrap_or(LogIndex::ZERO)
        }
    }

    /// Highest applied seq.
    pub fn last_seq(&self) -> u64 {
        self.above
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.floor_seq)
    }
}

/// The per-session exactly-once dedup table — part of **applied state**.
///
/// Every replica updates its table identically while applying committed
/// entries, so the table is a deterministic function of the committed
/// sequence; it is captured into [`crate::Snapshot`]s and folded into the
/// commit digest (see [`crate::fold_session_digest`]), which is what makes
/// dedup survive log compaction and leader restarts.
///
/// # Examples
///
/// ```
/// use wire::{LogIndex, SessionApply, SessionId, SessionTable};
///
/// let mut t = SessionTable::new();
/// let s = SessionId::client(7);
/// assert_eq!(t.apply(s, 1, LogIndex(10)), SessionApply::Applied);
/// assert_eq!(
///     t.apply(s, 1, LogIndex(12)),
///     SessionApply::Duplicate { first_index: LogIndex(10) }
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct SessionTable {
    sessions: BTreeMap<SessionId, SessionSlot>,
    /// Lower bound on every tracked slot's `last_active` — the O(1) fast
    /// path of [`SessionTable::evict_idle`]: a sweep whose horizon has not
    /// crossed this bound cannot evict anything and returns immediately,
    /// so the per-commit sweep is O(1) until idleness actually accrues.
    /// Pure cache (applies never lower `last_active`, so the bound stays
    /// valid; sweeps recompute it), excluded from equality.
    idle_floor: u64,
}

/// Equality is over the tracked sessions only: `idle_floor` is a sweep
/// cache, recomputed on demand, and differs between a table and its codec
/// round trip without the tables being observably different.
impl PartialEq for SessionTable {
    fn eq(&self, other: &Self) -> bool {
        self.sessions == other.sessions
    }
}

impl Eq for SessionTable {}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Number of sessions tracked.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session has applied anything.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The slot for `session`, if any seq applied.
    pub fn get(&self, session: SessionId) -> Option<&SessionSlot> {
        self.sessions.get(&session)
    }

    /// Iterates `(session, slot)` in deterministic (ascending id) order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &SessionSlot)> {
        self.sessions.iter().map(|(s, slot)| (*s, slot))
    }

    /// If `(session, seq)` was already applied, the index of its first
    /// application (ZERO when no longer remembered).
    pub fn duplicate_of(&self, session: SessionId, seq: u64) -> Option<LogIndex> {
        let slot = self.sessions.get(&session)?;
        slot.contains(seq).then(|| slot.first_index_of(seq))
    }

    /// Applies `(session, seq)` at log position `index`, recording it if it
    /// is new and reporting a duplicate otherwise. Deterministic: replicas
    /// applying the same committed sequence hold identical tables.
    pub fn apply(&mut self, session: SessionId, seq: u64, index: LogIndex) -> SessionApply {
        let slot = self.sessions.entry(session).or_default();
        slot.last_active = slot.last_active.max(index);
        if slot.contains(seq) {
            return SessionApply::Duplicate {
                first_index: slot.first_index_of(seq),
            };
        }
        if seq == slot.floor_seq + 1 {
            // In order (the common case): the floor moves directly, without
            // a detour through `above` and its tree node.
            slot.floor_seq = seq;
            slot.floor_index = index;
        } else {
            slot.above.insert(seq, index);
        }
        // Advance the floor across the now-contiguous run so the window
        // stays bounded by the session's in-flight depth.
        while let Some(idx) = slot.above.remove(&(slot.floor_seq + 1)) {
            slot.floor_seq += 1;
            slot.floor_index = idx;
        }
        SessionApply::Applied
    }

    /// Evicts every session whose last activity lies more than `ttl`
    /// committed indices below `now`, returning the evicted ids in
    /// deterministic (ascending) order. `ttl == 0` disables expiry.
    ///
    /// Idleness is measured in **log distance**, not wall time: the commit
    /// index is the one clock all replicas share, so eviction is a pure
    /// function of the committed sequence — replicas stay convergent, and
    /// the caller folds each eviction into the commit digest
    /// (`crate::fold_session_evicted`) so snapshots prove it.
    ///
    /// An evicted session's history is forgotten: a stale retry of one of
    /// its seqs no longer answers `Duplicate` — it is refused with the
    /// terminal [`crate::ClientOutcome::SessionExpired`] (see
    /// [`SessionTable::is_expired_retry`] for where that answer is
    /// authoritative) and the client must open a fresh session. That is
    /// the deliberate trade that keeps the table bounded by *live*
    /// sessions instead of every session ever seen.
    pub fn evict_idle(&mut self, now: LogIndex, ttl: u64) -> Vec<SessionId> {
        if ttl == 0 || self.sessions.is_empty() {
            return Vec::new();
        }
        let horizon = now.as_u64().saturating_sub(ttl);
        if horizon <= self.idle_floor {
            // Nothing can be older than the cached bound: O(1), no alloc.
            return Vec::new();
        }
        let mut evicted = Vec::new();
        let mut oldest_retained = u64::MAX;
        // BTreeMap::retain visits keys in ascending order, which is what
        // keeps the eviction sequence — and therefore the digest folds —
        // deterministic across replicas.
        self.sessions.retain(|s, slot| {
            if slot.last_active.as_u64() < horizon {
                evicted.push(*s);
                false
            } else {
                oldest_retained = oldest_retained.min(slot.last_active.as_u64());
                true
            }
        });
        // Everything retained is ≥ horizon; future applies only go up.
        self.idle_floor = if self.sessions.is_empty() {
            horizon
        } else {
            oldest_retained
        };
        evicted
    }

    /// `true` when `(session, seq)` reads as a write from an **expired**
    /// session: the table does not track the session, yet the seq is not a
    /// session-opening first request. Sessions issue seqs from 1
    /// contiguously with at most one in flight, so seq `n > 1` is only ever
    /// sent after `n-1` applied — a table that has applied everything
    /// committed so far and still lacks the session can only have evicted
    /// it.
    ///
    /// Where the answer is authoritative matters:
    ///
    /// - **At apply time** (a committed `Write` about to be applied at
    ///   index `k`): the table covers every commit below `k`, so `true`
    ///   is exact — the write is skipped and answered
    ///   [`ClientOutcome::SessionExpired`]. This is the check that keeps a
    ///   duplicate placement that outlives its session's eviction from
    ///   re-applying.
    /// - **At a propose door**: the local table may simply *lag* the
    ///   commit sequence (fresh leader before an entry of its own term
    ///   commits, any follower gateway), so `true` can be a false
    ///   positive — the session's writes are committed, just not applied
    ///   *here* yet. A door may therefore answer the terminal
    ///   `SessionExpired` only when **all** of the following hold, and
    ///   must otherwise fall back to routing the op onward (or answering
    ///   the non-terminal `Retry`):
    ///   1. its in-flight dedup (pending-write map / id index) ran first
    ///      and missed — a pair already replicating must never be told
    ///      "placed nowhere" while its placement survives in the log;
    ///   2. its applied state is **provably current** — it is the leader
    ///      and an entry of its own term has committed (Raft §8), so the
    ///      local table covers every write committed anywhere. Without
    ///      this, a falsely refused client would reopen a session and
    ///      resubmit while the original placement commits and applies —
    ///      the op applies twice.
    ///
    ///   The any-replica broadcast insert path must not consult this
    ///   check at all: one lagging replica would otherwise veto an op
    ///   that the rest of the quorum is already placing.
    ///
    /// **Boundary:** an unknown session with `seq == 1` is indistinguishable
    /// from a new session opening, so it is *not* flagged — a client whose
    /// only-ever seq-1 op applied, went unacked, and who then retries after
    /// sitting idle past the TTL will have that op re-applied. This is the
    /// classic expiry trade (Raft dissertation §6.3). [`ClientOp::Register`]
    /// closes it for clients that opt in: registration is an explicit
    /// committed op that consumes seq 1, so a registered session's writes
    /// all carry `seq > 1` and every post-eviction retry is detectable —
    /// the only re-applyable seq-1 op is the registration itself, which is
    /// value-free and harmlessly re-opens an empty session.
    pub fn is_expired_retry(&self, session: SessionId, seq: u64) -> bool {
        seq > 1 && !self.sessions.contains_key(&session)
    }

    /// Restores a slot wholesale (codec path).
    pub(crate) fn insert_slot(&mut self, session: SessionId, slot: SessionSlot) {
        self.sessions.insert(session, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_id_display() {
        assert_eq!(SessionId::client(5).to_string(), "s5");
        assert_eq!(SessionId::client(5), SessionId(5));
    }

    #[test]
    fn in_order_applies_advance_floor() {
        let mut t = SessionTable::new();
        let s = SessionId::client(1);
        for seq in 1..=5u64 {
            assert_eq!(t.apply(s, seq, LogIndex(seq + 100)), SessionApply::Applied);
        }
        let slot = t.get(s).unwrap();
        assert_eq!(slot.floor_seq, 5);
        assert_eq!(slot.floor_index, LogIndex(105));
        assert!(slot.above.is_empty());
        assert_eq!(slot.last_seq(), 5);
    }

    #[test]
    fn duplicates_report_first_index() {
        let mut t = SessionTable::new();
        let s = SessionId::client(1);
        t.apply(s, 1, LogIndex(3));
        assert_eq!(
            t.apply(s, 1, LogIndex(9)),
            SessionApply::Duplicate {
                first_index: LogIndex(3)
            }
        );
        assert_eq!(t.duplicate_of(s, 1), Some(LogIndex(3)));
        assert_eq!(t.duplicate_of(s, 2), None);
    }

    #[test]
    fn out_of_order_applies_are_not_duplicates() {
        // C-Raft's global log applies batch items out of order when batches
        // from one cluster commit in a different order than they were cut.
        // Each distinct seq must apply exactly once regardless.
        let mut t = SessionTable::new();
        let s = SessionId::client(8);
        assert_eq!(t.apply(s, 2, LogIndex(10)), SessionApply::Applied);
        assert_eq!(t.apply(s, 1, LogIndex(11)), SessionApply::Applied);
        let slot = t.get(s).unwrap();
        assert_eq!(slot.floor_seq, 2, "floor catches up once contiguous");
        assert!(slot.above.is_empty());
        assert_eq!(
            t.apply(s, 2, LogIndex(12)),
            SessionApply::Duplicate {
                first_index: LogIndex(10)
            }
        );
    }

    #[test]
    fn ancient_duplicate_has_unknown_index() {
        let mut t = SessionTable::new();
        let s = SessionId::client(1);
        t.apply(s, 1, LogIndex(1));
        t.apply(s, 2, LogIndex(2));
        // Seq 1 is below the floor and its index was merged away.
        assert_eq!(t.duplicate_of(s, 1), Some(LogIndex::ZERO));
        assert_eq!(t.duplicate_of(s, 2), Some(LogIndex(2)));
    }

    #[test]
    fn evict_idle_removes_only_idle_sessions() {
        let mut t = SessionTable::new();
        let idle = SessionId::client(1);
        let busy = SessionId::client(2);
        t.apply(idle, 1, LogIndex(10));
        t.apply(busy, 1, LogIndex(10));
        t.apply(busy, 2, LogIndex(100));
        // ttl 50 at commit 100: idle (last active 10) goes, busy stays.
        assert_eq!(t.evict_idle(LogIndex(100), 50), vec![idle]);
        assert!(t.get(idle).is_none());
        assert!(t.get(busy).is_some());
        // Re-running at the same point is a no-op (determinism).
        assert!(t.evict_idle(LogIndex(100), 50).is_empty());
    }

    #[test]
    fn evict_idle_disabled_by_zero_ttl() {
        let mut t = SessionTable::new();
        t.apply(SessionId::client(1), 1, LogIndex(1));
        assert!(t.evict_idle(LogIndex(1_000_000), 0).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn evict_idle_returns_ascending_ids() {
        let mut t = SessionTable::new();
        for id in [5u64, 1, 3] {
            t.apply(SessionId::client(id), 1, LogIndex(1));
        }
        let evicted = t.evict_idle(LogIndex(100), 10);
        assert_eq!(
            evicted,
            vec![SessionId(1), SessionId(3), SessionId(5)],
            "deterministic eviction order is what keeps digests convergent"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn committed_duplicates_refresh_activity() {
        let mut t = SessionTable::new();
        let s = SessionId::client(1);
        t.apply(s, 1, LogIndex(10));
        // A committed retry of seq 1 at index 90 counts as activity...
        assert!(matches!(
            t.apply(s, 1, LogIndex(90)),
            SessionApply::Duplicate { .. }
        ));
        // ...so the session survives a ttl-50 sweep at commit 100.
        assert!(t.evict_idle(LogIndex(100), 50).is_empty());
        assert_eq!(t.get(s).unwrap().last_active, LogIndex(90));
    }

    #[test]
    fn expired_retry_detection() {
        let mut t = SessionTable::new();
        let s = SessionId::client(1);
        t.apply(s, 1, LogIndex(1));
        t.apply(s, 2, LogIndex(2));
        // Tracked session: never an expired retry.
        assert!(!t.is_expired_retry(s, 2));
        t.evict_idle(LogIndex(500), 100);
        // Evicted: seq > 1 can only be a stale retry (answer Retry)...
        assert!(t.is_expired_retry(s, 2));
        assert_eq!(t.duplicate_of(s, 2), None, "history is forgotten");
        // ...while seq 1 reads as a fresh session opening.
        assert!(!t.is_expired_retry(s, 1));
    }

    #[test]
    fn read_ids_and_write_seqs_are_disjoint() {
        // Every ordinal tags into the read space: powers of two, their
        // predecessors (0 included) and the largest.
        let ordinals = (0..64).flat_map(|b| [1u64 << b, (1u64 << b) - 1]);
        for n in ordinals.chain([u64::MAX]) {
            let read = ClientRequest::read(SessionId::client(3), n, Consistency::Linearizable);
            assert!(is_read_id(read.seq), "read ordinal {n}");
        }
        // No write seq a contiguous client can reach (1 up to 2^63 - 1) is a
        // read id.
        let writes = (1..=1 << 16).chain((0..63).map(|b| 1u64 << b));
        for seq in writes.chain([READ_ID_BIT - 1]) {
            assert!(!is_read_id(seq), "write seq {seq}");
        }
    }

    #[test]
    fn outcome_terminality() {
        assert!(ClientOutcome::Committed { index: LogIndex(1) }.is_terminal());
        assert!(ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(1)
        }
        .is_terminal());
        assert!(!ClientOutcome::Retry.is_terminal());
        assert!(!ClientOutcome::Redirect { leader_hint: None }.is_terminal());
        assert_eq!(ClientOutcome::Retry.kind(), "retry");
    }
}
