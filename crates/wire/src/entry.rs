//! Log entries and their payloads.
//!
//! ## Shared-payload ownership
//!
//! Replication fans the same bytes out to many recipients, so the bulky
//! parts of an entry are reference-counted and **immutable once shared**:
//! [`Bytes`] data, [`Batch`] item lists, [`GlobalState`] inner entries, and
//! whole [`EntryList`] append batches all clone in O(1) by bumping a
//! refcount. A producer must treat an entry as frozen from the moment it is
//! handed to `Actions::send`/`send_many` — the same allocation may now be
//! referenced by every in-flight copy. Site-local bookkeeping that *does*
//! change per copy (the `approval` field) lives outside the shared
//! allocations, in the [`LogEntry`] value itself, so stamping a received
//! entry's approval never touches the shared buffers.
//!
//! An [`EntryList`]'s buffer outlives its messages: the log that collected
//! it keeps a handle and rewrites the buffer for a later dispatch, but only
//! while that handle is the only one left (`Rc::get_mut`), so a list some
//! message still holds never changes. A [`GlobalState`]'s inner entry
//! follows the same rule (one [`crate::Recycler`] type serves both): the
//! cluster leader that wrapped it rewrites it only once no log, stable
//! state or message holds it.
//!
//! The refcount is an [`Rc`], not an `Arc`: the protocol stack runs on one
//! thread, so an atomic read-modify-write per clone and drop would buy
//! nothing. Entries, payloads and the messages carrying them are therefore
//! not `Send`. A runner that moves data between threads moves encoded
//! frames and decodes them on the thread that owns the engine.

use core::fmt;
use std::rc::Rc;

use bytes::Bytes;

use crate::{ClusterId, Configuration, EntryId, LogIndex, SessionId, Term};

/// Who made an entry durable at a site: the site itself (fast track) or the
/// leader (classic track). §IV-A, the `insertedBy` field.
///
/// Only **leader-approved** entries count towards up-to-dateness in leader
/// election; **self-approved** entries must be resent to a new leader during
/// recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Approval {
    /// Inserted directly from a proposer broadcast (fast track).
    SelfApproved,
    /// Inserted or confirmed by the leader (classic track / AppendEntries).
    LeaderApproved,
}

impl fmt::Display for Approval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Approval::SelfApproved => write!(f, "self"),
            Approval::LeaderApproved => write!(f, "leader"),
        }
    }
}

/// One entry of a C-Raft global-log batch: a locally committed value being
/// replicated globally.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BatchItem {
    /// Original proposal id (for deduplication and client notification).
    pub id: EntryId,
    /// The originating client write's `(session, seq)`, when the value came
    /// through the session API: the **global** log applies batches
    /// item-wise through its own session table, so a value whose item lands
    /// in two batches (successor leader re-batching after a crash, a batch
    /// retry racing global compaction) still applies globally exactly once.
    pub key: Option<(SessionId, u64)>,
    /// The replicated value.
    pub data: Bytes,
}

/// A batch of locally committed entries proposed to the global log by a
/// cluster leader (§V-A).
///
/// The item list is `Rc`-shared: cloning a batch (e.g. when the entry
/// holding it is re-broadcast, voted on, or replicated to every cluster
/// member) bumps a refcount instead of copying the values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Batch {
    /// The cluster whose local log produced this batch.
    pub cluster: ClusterId,
    /// Sequence number of this batch among those its proposing site has
    /// cut. Nothing dedups by it: the global log applies a batch item by
    /// item, by each [`BatchItem::key`]. Nor is it
    /// unique within a cluster: each site counts from 0 when it is created
    /// or recovers, so a successor or recovered cluster leader reuses
    /// numbers an earlier leader used.
    pub batch_seq: u64,
    /// The batched values, in local-log order (immutable once built).
    pub items: Rc<[BatchItem]>,
}

impl Batch {
    /// Builds a batch from its items. An exact-length iterator (a `Vec`, a
    /// `drain(..)`, either `map`ped) is collected in one allocation.
    pub fn new(
        cluster: ClusterId,
        batch_seq: u64,
        items: impl IntoIterator<Item = BatchItem>,
    ) -> Self {
        Batch {
            cluster,
            batch_seq,
            items: items.into_iter().collect(),
        }
    }

    /// Number of values in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the batch carries no values.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A C-Raft *global state entry*: a local-log entry that replicates, within a
/// cluster, the fact that the cluster leader inserted `entry` at `index` of
/// its **global** log (§V-B). Committing this locally before acting ensures a
/// successor local leader inherits the inter-cluster state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GlobalState {
    /// The global-log index the entry was inserted at.
    pub index: LogIndex,
    /// The global-log entry itself (`Rc`-shared: a global-state entry is
    /// replicated to every cluster member, and cloning it must not copy the
    /// wrapped global entry).
    pub entry: Rc<LogEntry>,
    /// The global commit index known to the local leader when proposing,
    /// so cluster members track global commits across leader changes.
    pub global_commit: LogIndex,
}

/// What a log entry carries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A leader no-op, appended on election to commit an entry of the new
    /// term (standard Raft practice; enables commit-index advancement).
    Noop,
    /// A session-tagged client write (exactly-once semantics): replicas
    /// apply it through their `SessionTable`, so a retried `seq` that
    /// commits at a second index is recognized and skipped.
    Write {
        /// The issuing client session.
        session: SessionId,
        /// The session-local sequence number (retries reuse it).
        seq: u64,
        /// The written value.
        data: Bytes,
    },
    /// A membership change: the complete new configuration (§IV-D).
    Config(Configuration),
    /// A batch of locally committed entries (C-Raft global log).
    Batch(Batch),
    /// Replicated inter-cluster consensus state (C-Raft local log).
    GlobalState(GlobalState),
    /// An explicit session registration (`ClientOp::Register`): a committed
    /// no-value op that opens `session`, consuming seq **1** under
    /// exactly-once semantics so the session's first real write carries
    /// seq 2 (see `SessionTable::is_expired_retry` for why that closes the
    /// expiry re-apply window).
    Register {
        /// The session being opened.
        session: SessionId,
    },
}

impl Payload {
    /// Short tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Noop => "noop",
            Payload::Write { .. } => "write",
            Payload::Config(_) => "config",
            Payload::Batch(_) => "batch",
            Payload::GlobalState(_) => "gstate",
            Payload::Register { .. } => "register",
        }
    }

    /// The `(session, seq)` this payload applies under exactly-once
    /// semantics, if any. Batches dedup **item-wise** (each
    /// [`BatchItem::key`]), not as a whole.
    pub fn session_key(&self) -> Option<(SessionId, u64)> {
        match self {
            Payload::Write { session, seq, .. } => Some((*session, *seq)),
            Payload::Register { session } => Some((*session, 1)),
            _ => None,
        }
    }

    /// `true` for configuration entries.
    pub fn is_config(&self) -> bool {
        matches!(self, Payload::Config(_))
    }
}

/// A replicated log entry (§IV-A "Contents of a log entry").
///
/// Identity for vote-counting purposes is the [`EntryId`]: a re-proposal of
/// the same value carries the same id, while two different proposals always
/// differ. The `approval` field is site-local bookkeeping and is excluded
/// from identity (two sites can hold the same entry with different approval).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// Term in which the entry was created.
    pub term: Term,
    /// Unique id of the proposal that created the entry.
    pub id: EntryId,
    /// The replicated value.
    pub payload: Payload,
    /// How this site obtained the entry (site-local, not replicated).
    pub approval: Approval,
}

impl LogEntry {
    /// Creates a session-tagged client write entry.
    pub fn write(term: Term, id: EntryId, session: SessionId, seq: u64, data: Bytes) -> Self {
        LogEntry {
            term,
            id,
            payload: Payload::Write { session, seq, data },
            approval: Approval::LeaderApproved,
        }
    }

    /// Creates an explicit session-registration entry (consumes seq 1 of
    /// the session — see [`crate::ClientOp::Register`]).
    pub fn register(term: Term, id: EntryId, session: SessionId) -> Self {
        LogEntry {
            term,
            id,
            payload: Payload::Register { session },
            approval: Approval::LeaderApproved,
        }
    }

    /// Creates a leader no-op entry.
    pub fn noop(term: Term, id: EntryId) -> Self {
        LogEntry {
            term,
            id,
            payload: Payload::Noop,
            approval: Approval::LeaderApproved,
        }
    }

    /// Creates a configuration entry.
    pub fn config(term: Term, id: EntryId, config: Configuration) -> Self {
        LogEntry {
            term,
            id,
            payload: Payload::Config(config),
            approval: Approval::LeaderApproved,
        }
    }

    /// Returns a copy with the given approval.
    #[must_use]
    pub fn with_approval(&self, approval: Approval) -> LogEntry {
        let mut e = self.clone();
        e.approval = approval;
        e
    }

    /// Returns a copy with the given term (used when a leader adopts a
    /// recovered entry into its own term).
    #[must_use]
    pub fn with_term(&self, term: Term) -> LogEntry {
        let mut e = self.clone();
        e.term = term;
        e
    }

    /// `true` if both refer to the same proposed value (identity by id),
    /// regardless of term or approval.
    pub fn same_proposal(&self, other: &LogEntry) -> bool {
        self.id == other.id
    }

    /// The configuration carried by this entry, if it is a config entry.
    pub fn as_config(&self) -> Option<&Configuration> {
        match &self.payload {
            Payload::Config(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {} {}]",
            self.payload.kind(),
            self.term,
            self.id,
            self.approval
        )
    }
}

/// An immutable, `Rc`-shared batch of explicitly indexed log entries — the
/// payload of an `AppendEntries` message.
///
/// A leader assembling one replication batch for several followers builds
/// the list **once** and clones the handle per recipient; every in-flight
/// copy then references the same allocation (the zero-copy fabric). The
/// entries are frozen: consumers clone individual [`LogEntry`] values out of
/// the list before mutating site-local fields such as `approval`.
///
/// The list is a shared handle to a reusable buffer.
/// `SparseLog::collect_range_budgeted` keeps a handle to every buffer it
/// hands out and rewrites one in place once no message holds it any more,
/// so a log's steady-state replication allocates nothing; the empty list is
/// no allocation at all. Equality, hashing, and iteration see only the
/// entries, never which allocation holds them.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use wire::{EntryId, EntryList, LogEntry, LogIndex, NodeId, SessionId, Term};
///
/// let id = EntryId::new(NodeId(1), 0);
/// let e = LogEntry::write(Term(1), id, SessionId::client(1), 1, Bytes::from_static(b"v"));
/// let list = EntryList::from_vec(vec![(LogIndex(3), e)]);
/// let shared = list.clone(); // O(1): same allocation
/// assert_eq!(shared.len(), 1);
/// assert_eq!(shared[0].0, LogIndex(3));
/// ```
#[derive(Clone, Default)]
pub struct EntryList(
    /// The entries; `None` for the empty list, so a pure heartbeat carries
    /// (and decodes to) no allocation at all.
    pub(crate) Option<Rc<Vec<(LogIndex, LogEntry)>>>,
);

impl EntryList {
    /// Freezes a vector of indexed entries into a shareable list, wrapping
    /// the vector as it is (an empty one becomes the empty list).
    pub fn from_vec(entries: Vec<(LogIndex, LogEntry)>) -> Self {
        EntryList((!entries.is_empty()).then(|| Rc::new(entries)))
    }

    /// The empty list (pure heartbeat).
    pub fn empty() -> Self {
        EntryList(None)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the list carries no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the `(index, entry)` pairs in order.
    pub fn iter(&self) -> core::slice::Iter<'_, (LogIndex, LogEntry)> {
        self.as_slice().iter()
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[(LogIndex, LogEntry)] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl fmt::Debug for EntryList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for EntryList {
    /// Contents, not allocation identity: two lists holding the same pairs
    /// compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EntryList {}

impl core::hash::Hash for EntryList {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl core::ops::Deref for EntryList {
    type Target = [(LogIndex, LogEntry)];
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl From<Vec<(LogIndex, LogEntry)>> for EntryList {
    fn from(entries: Vec<(LogIndex, LogEntry)>) -> Self {
        EntryList::from_vec(entries)
    }
}

impl FromIterator<(LogIndex, LogEntry)> for EntryList {
    fn from_iter<I: IntoIterator<Item = (LogIndex, LogEntry)>>(iter: I) -> Self {
        EntryList::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a EntryList {
    type Item = &'a (LogIndex, LogEntry);
    type IntoIter = core::slice::Iter<'a, (LogIndex, LogEntry)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn id(n: u64, s: u64) -> EntryId {
        EntryId::new(NodeId(n), s)
    }

    #[test]
    fn constructors_set_expected_payloads() {
        let d = LogEntry::write(
            Term(1),
            id(1, 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        );
        assert_eq!(d.payload.kind(), "write");
        let n = LogEntry::noop(Term(2), id(1, 1));
        assert_eq!(n.payload.kind(), "noop");
        let c = LogEntry::config(Term(3), id(1, 2), Configuration::new([NodeId(1)]));
        assert!(c.payload.is_config());
        assert!(c.as_config().is_some());
        assert!(d.as_config().is_none());
    }

    #[test]
    fn same_proposal_ignores_term_and_approval() {
        let a = LogEntry::write(
            Term(1),
            id(1, 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        );
        let b = a.with_term(Term(5)).with_approval(Approval::SelfApproved);
        assert!(a.same_proposal(&b));
        let c = LogEntry::write(
            Term(1),
            id(1, 1),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        );
        assert!(!a.same_proposal(&c));
    }

    #[test]
    fn with_approval_does_not_mutate_original() {
        let a = LogEntry::write(
            Term(1),
            id(1, 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        );
        let b = a.with_approval(Approval::SelfApproved);
        assert_eq!(a.approval, Approval::LeaderApproved);
        assert_eq!(b.approval, Approval::SelfApproved);
    }

    #[test]
    fn batch_len() {
        let batch = Batch::new(
            ClusterId(1),
            0,
            vec![BatchItem {
                id: id(1, 0),
                key: None,
                data: Bytes::from_static(b"v"),
            }],
        );
        assert_eq!(batch.len(), 1);
        assert!(!batch.is_empty());
        assert!(Batch::new(ClusterId(1), 1, vec![]).is_empty());
    }

    #[test]
    fn batch_clone_shares_items() {
        let batch = Batch::new(
            ClusterId(1),
            0,
            vec![BatchItem {
                id: id(1, 0),
                key: None,
                data: Bytes::from_static(b"v"),
            }],
        );
        let copy = batch.clone();
        assert!(Rc::ptr_eq(&batch.items, &copy.items));
    }

    #[test]
    fn entry_list_shares_allocation() {
        let e = LogEntry::write(
            Term(1),
            id(1, 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        );
        let list = EntryList::from_vec(vec![(LogIndex(2), e.clone()), (LogIndex(5), e)]);
        let shared = list.clone();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.as_slice()[1].0, LogIndex(5));
        assert!(std::ptr::eq(list.as_slice(), shared.as_slice()));
        assert!(EntryList::empty().is_empty());
        assert_eq!(EntryList::default(), EntryList::empty());
        let collected: EntryList = list.iter().cloned().collect();
        assert_eq!(collected, list);
    }

    #[test]
    fn entry_list_equality_is_by_content() {
        let pairs: Vec<(LogIndex, LogEntry)> = (0..5)
            .map(|i| {
                (
                    LogIndex(i + 1),
                    LogEntry::write(
                        Term(1),
                        id(1, i),
                        SessionId::client(1),
                        1,
                        Bytes::from_static(b"v"),
                    ),
                )
            })
            .collect();
        let list = EntryList::from_vec(pairs[1..4].to_vec());
        assert_eq!(list.len(), 3);
        assert_eq!(list.as_slice()[0].0, LogIndex(2));
        // A second allocation holding the same pairs: equal, same hash,
        // same Debug.
        let copy: EntryList = pairs[1..4].iter().cloned().collect();
        assert!(!std::ptr::eq(list.as_slice(), copy.as_slice()));
        assert_eq!(list, copy);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |l: &EntryList| {
            let mut s = DefaultHasher::new();
            l.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&list), h(&copy));
        assert_eq!(format!("{list:?}"), format!("{copy:?}"));
        assert_ne!(list, EntryList::from_vec(pairs[..3].to_vec()));
    }

    #[test]
    fn display_is_informative() {
        let e = LogEntry::write(
            Term(1),
            id(2, 3),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        );
        let s = e.to_string();
        assert!(s.contains("write"));
        assert!(s.contains("T1"));
        assert!(s.contains("n2:3"));
    }
}
