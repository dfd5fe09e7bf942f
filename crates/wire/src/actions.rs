//! The sans-IO protocol interface.
//!
//! Protocol cores (classic Raft, Fast Raft, C-Raft) are pure state machines:
//! every input — a received message, a timer firing, a client proposal — is
//! handled by a method that mutates the node and records its effects into an
//! [`Actions`] buffer. The embedding (the simulation harness here; a real
//! network runtime in production) then performs the effects: sends the
//! messages, (re)arms the timers, applies the persistence commands to stable
//! storage, and surfaces commits to the application.
//!
//! This split keeps every protocol step deterministic and unit-testable, and
//! lets one harness drive all three protocols identically.

use des::{SimDuration, SimTime};

use crate::{ClientOutcome, ClientRequest, EntryId, LogEntry, LogIndex, NodeId, SessionId, Term};

/// The kinds of timers a protocol node can arm. Setting a timer of a kind
/// **replaces** any pending timer of the same kind on the same node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Follower/candidate election timeout (§III-A).
    Election,
    /// Leader heartbeat + AppendEntries dispatch period.
    Heartbeat,
    /// Leader's periodic commit-decision loop (Fast Raft §IV-B).
    LeaderTick,
    /// Proposer-side proposal timeout: resend if not committed (§IV-B).
    ProposalRetry,
    /// Joining site's join-request retry (§IV-D).
    JoinRetry,
    /// C-Raft batch flush timer (§V-A).
    BatchFlush,
    /// Election timeout for the **global** level of C-Raft.
    GlobalElection,
    /// Heartbeat for the **global** level of C-Raft.
    GlobalHeartbeat,
    /// Leader tick for the **global** level of C-Raft.
    GlobalLeaderTick,
    /// Proposal retry at the **global** level of C-Raft.
    GlobalProposalRetry,
    /// Global-level join retry (new cluster formation, §V-C).
    GlobalJoinRetry,
}

impl TimerKind {
    /// Number of timer kinds; the valid range of [`TimerKind::index`].
    /// Embeddings use it to size dense per-node timer tables (a fixed
    /// array beats a `HashMap` on the arm/cancel hot path).
    pub const COUNT: usize = 11;

    /// Dense discriminant in `0..Self::COUNT`, stable across a process.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The kind with dense discriminant `i`, the inverse of
    /// [`TimerKind::index`].
    pub const fn from_index(i: usize) -> Option<TimerKind> {
        match i {
            0 => Some(TimerKind::Election),
            1 => Some(TimerKind::Heartbeat),
            2 => Some(TimerKind::LeaderTick),
            3 => Some(TimerKind::ProposalRetry),
            4 => Some(TimerKind::JoinRetry),
            5 => Some(TimerKind::BatchFlush),
            6 => Some(TimerKind::GlobalElection),
            7 => Some(TimerKind::GlobalHeartbeat),
            8 => Some(TimerKind::GlobalLeaderTick),
            9 => Some(TimerKind::GlobalProposalRetry),
            10 => Some(TimerKind::GlobalJoinRetry),
            _ => None,
        }
    }
}

/// A timer instruction emitted by a protocol node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerCmd {
    /// Arm (or re-arm) the timer to fire `after` from now.
    Set {
        /// Which timer.
        kind: TimerKind,
        /// Delay from the current instant.
        after: SimDuration,
    },
    /// Disarm the timer if pending.
    Cancel {
        /// Which timer.
        kind: TimerKind,
    },
}

/// Which replicated log a commit belongs to. Single-level protocols commit
/// only to [`LogScope::Global`]; C-Raft commits to both levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogScope {
    /// A cluster-local log (C-Raft intra-cluster consensus).
    Local,
    /// The system-wide totally ordered log.
    Global,
}

/// Notification that an entry became committed at this site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commit {
    /// Which log.
    pub scope: LogScope,
    /// The committed index.
    pub index: LogIndex,
    /// The committed entry.
    pub entry: LogEntry,
}

/// A write-ahead persistence command. The embedding **must** apply these to
/// stable storage before releasing the accompanying outgoing messages;
/// recovery rebuilds a node from the accumulated state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistCmd {
    /// Persist the current term and vote (§IV-A persistent state).
    ///
    /// C-Raft sites participate in two consensus levels with independent
    /// terms, so the command is scoped like log writes.
    SetTermVote {
        /// Which consensus level's term.
        scope: LogScope,
        /// Latest term seen.
        term: Term,
        /// Vote cast in that term, if any.
        voted_for: Option<NodeId>,
    },
    /// Persist an entry at an index (insert or overwrite).
    Insert {
        /// Which log.
        scope: LogScope,
        /// Position written.
        index: LogIndex,
        /// The entry written.
        entry: LogEntry,
    },
    /// Remove all entries at `from` and beyond.
    Truncate {
        /// Which log.
        scope: LogScope,
        /// First index removed.
        from: LogIndex,
    },
    /// Replace the decided prefix through `snapshot.last_index` with the
    /// snapshot (leader-side compaction and follower-side snapshot install
    /// alike): storage records the snapshot and drops the covered entries,
    /// keeping any consistent suffix. Recovery rebuilds from snapshot + log
    /// suffix.
    InstallSnapshot {
        /// The snapshot; its `scope` names the log it compacts.
        snapshot: crate::Snapshot,
    },
    /// Reserve [`crate::EntryId`] sequence numbers below `through` for this
    /// proposer: recovery restarts the proposal counter at the highest
    /// reserved ceiling instead of 0. Without the reservation, a recovered
    /// gateway re-mints ids it used before the crash, and every peer's
    /// id-dedup answers "already committed" **for the old entry** — the new
    /// proposal is silently dropped and its client retries forever.
    /// Reserving in blocks keeps this to one stable write per block rather
    /// than per proposal; the ids skipped by a crash are never observed.
    ReserveProposalSeqs {
        /// Which consensus level's proposal counter.
        scope: LogScope,
        /// One past the highest sequence number covered.
        through: u64,
    },
}

/// Observable protocol transitions, consumed by metrics and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observation {
    /// Node became candidate and started an election.
    ElectionStarted {
        /// The new term.
        term: Term,
    },
    /// Node won an election.
    BecameLeader {
        /// The term led.
        term: Term,
    },
    /// Node reverted to (or confirmed) follower state.
    BecameFollower {
        /// The current term.
        term: Term,
    },
    /// A proposal issued *by this node* was acknowledged committed.
    ProposalCommitted {
        /// The proposal.
        id: EntryId,
        /// Where it landed.
        index: LogIndex,
        /// Which log it landed in.
        scope: LogScope,
    },
    /// The leader committed via the fast track (fast quorum of identical
    /// votes, §IV-B).
    FastTrackCommit {
        /// Committed index.
        index: LogIndex,
    },
    /// The leader committed via the classic track.
    ClassicTrackCommit {
        /// Committed index.
        index: LogIndex,
    },
    /// Leader suspects a member left silently (member timeout, §IV-D).
    MemberSuspected {
        /// The unresponsive member.
        node: NodeId,
    },
    /// A configuration entry committed; quorum sizes now follow it.
    ConfigCommitted {
        /// New voting-member count.
        members: usize,
    },
    /// A joining site finished catch-up and was proposed into the config.
    JoinAccepted {
        /// The joining site.
        node: NodeId,
    },
    /// The leader's liveness guard fired: the classic track stalled for
    /// `hole_fill_ticks` decision ticks on a log hole and a no-op was
    /// re-proposed at the blocked index. Counted by the harness to measure
    /// how often hole repair triggers under churn. Proactive repairs (an
    /// append ack revealed the stall before the tick guard elapsed) emit
    /// the same observation.
    HoleRepairTriggered {
        /// The blocked index being repaired.
        index: LogIndex,
    },
    /// A site compacted its log prefix into a snapshot.
    LogCompacted {
        /// Which log was compacted.
        scope: LogScope,
        /// The new compaction horizon.
        through: LogIndex,
        /// Entries still retained after compaction.
        retained: usize,
    },
    /// A site replaced its log prefix with a snapshot received from the
    /// leader (catch-up past the leader's compaction horizon).
    SnapshotInstalled {
        /// Which log the snapshot covers.
        scope: LogScope,
        /// The snapshot's last covered index.
        last_index: LogIndex,
    },
    /// The typed answer to a [`ClientRequest`] submitted *at this node*
    /// (the gateway): the embedding relays it to the caller.
    ClientResponse {
        /// The issuing session.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
        /// What happened.
        outcome: ClientOutcome,
    },
    /// A committed session-tagged operation took effect (first application)
    /// at this site. Emitted by every applying replica; tests use it to
    /// prove exactly-once semantics (per `(session, seq)` and scope, all
    /// emissions name the same index).
    SessionApplied {
        /// Which log the entry committed in.
        scope: LogScope,
        /// The applying session.
        session: SessionId,
        /// The applied sequence number.
        seq: u64,
        /// Where it took effect.
        index: LogIndex,
    },
    /// A committed entry was recognized as a session duplicate and its
    /// application skipped (the retry-suppression path working as designed).
    SessionDuplicate {
        /// Which log the duplicate committed in.
        scope: LogScope,
        /// The session.
        session: SessionId,
        /// The duplicated sequence number.
        seq: u64,
        /// Where the first application landed (ZERO if unknown).
        first_index: LogIndex,
    },
    /// An idle session was garbage-collected from the applied
    /// [`crate::SessionTable`]: its last activity lies more than the
    /// configured `session_ttl` committed indices below the commit floor.
    /// Emitted by every applying replica (eviction is deterministic, a pure
    /// function of the committed sequence) and folded into the commit
    /// digest via [`crate::fold_session_evicted`]. Writes from the evicted
    /// session are answered with the terminal
    /// [`crate::ClientOutcome::SessionExpired`] from now on (never
    /// `Duplicate`, and never re-applied — the apply-time check skips a
    /// committed duplicate that outlived the eviction).
    SessionEvicted {
        /// Which log's applied state evicted the session.
        scope: LogScope,
        /// The expired session.
        session: SessionId,
        /// The commit index at which the eviction took effect.
        at: LogIndex,
    },
    /// C-Raft invariant probe (ROADMAP snapshot item b): a (re)activating
    /// cluster leader found its reconstructed global log view
    /// **front-gapped** — entries exist above a hole that starts right
    /// after the snapshot horizon, because local compaction discarded
    /// global-state entries the cached global snapshot does not cover. The
    /// view is safe to hold (commits never cross the gap and §IV-B slot
    /// voting protects decided indices) but the site must catch up via the
    /// global leader's resend or snapshot before the gap region is usable.
    GlobalViewGap {
        /// The snapshot horizon the view is contiguous up to.
        horizon: LogIndex,
        /// The first retained entry above the gap.
        first_retained: LogIndex,
    },
    /// A linearizable read was answered locally from a live leader lease —
    /// zero messages on the wire (see `wire::LeaseState` and
    /// `docs/CONSISTENCY.md`).
    LeaseRead {
        /// The issuing session.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
        /// The commit floor the answer carried.
        floor: LogIndex,
    },
    /// A linearizable read was confirmed through the ReadIndex quorum round
    /// (the lease was lapsed, disabled, or not yet enabled).
    ReadIndexRead {
        /// The issuing session.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
        /// The commit floor the answer carried.
        floor: LogIndex,
    },
    /// An incoming message was ignored, with the reason (not-in-config,
    /// stale term, duplicate, ...). Useful in tests.
    MessageIgnored {
        /// Why it was dropped.
        reason: &'static str,
    },
}

/// Effect buffer filled by protocol handlers.
///
/// # Examples
///
/// ```
/// use wire::{Actions, NodeId, TimerKind};
/// use des::SimDuration;
///
/// let mut out: Actions<&'static str> = Actions::new();
/// out.send(NodeId(2), "hello");
/// out.set_timer(TimerKind::Election, SimDuration::from_millis(150));
/// assert_eq!(out.sends.len(), 1);
/// assert_eq!(out.timers.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Actions<M> {
    /// Messages to transmit, in emission order.
    pub sends: Vec<(NodeId, M)>,
    /// Timer commands, in emission order.
    pub timers: Vec<TimerCmd>,
    /// Entries that became committed during this step.
    pub commits: Vec<Commit>,
    /// Persistence commands; must be applied before releasing `sends`.
    pub persists: Vec<PersistCmd>,
    /// Observability events.
    pub observations: Vec<Observation>,
}

impl<M> Default for Actions<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Actions<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Actions {
            sends: Vec::new(),
            timers: Vec::new(),
            commits: Vec::new(),
            persists: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Queues a message to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues the same message to every node in `to` (cloning per recipient).
    pub fn send_many(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M)
    where
        M: Clone,
    {
        for n in to {
            self.sends.push((n, msg.clone()));
        }
    }

    /// Arms (or re-arms) a timer.
    pub fn set_timer(&mut self, kind: TimerKind, after: SimDuration) {
        self.timers.push(TimerCmd::Set { kind, after });
    }

    /// Disarms a timer.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.timers.push(TimerCmd::Cancel { kind });
    }

    /// Records a commit notification.
    pub fn commit(&mut self, scope: LogScope, index: LogIndex, entry: LogEntry) {
        self.commits.push(Commit {
            scope,
            index,
            entry,
        });
    }

    /// Records a persistence command.
    pub fn persist(&mut self, cmd: PersistCmd) {
        self.persists.push(cmd);
    }

    /// Records an observation.
    pub fn observe(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// `true` if the step produced no effects at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.timers.is_empty()
            && self.commits.is_empty()
            && self.persists.is_empty()
            && self.observations.is_empty()
    }

    /// Clears all buffered effects (for buffer reuse).
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.commits.clear();
        self.persists.clear();
        self.observations.clear();
    }

    /// Moves all effects from `other` into `self`, preserving order.
    pub fn absorb(&mut self, other: &mut Actions<M>) {
        self.sends.append(&mut other.sends);
        self.timers.append(&mut other.timers);
        self.commits.append(&mut other.commits);
        self.persists.append(&mut other.persists);
        self.observations.append(&mut other.observations);
    }
}

/// A message that knows its encoded size, for bandwidth accounting.
pub trait Message: Clone + core::fmt::Debug {
    /// Exact bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;
}

/// The uniform driving interface implemented by every protocol node.
///
/// The harness calls these handlers from the event loop; nodes must never
/// block, sleep, or read clocks — time reaches them only through timers and
/// the embedding-stamped local clock of
/// [`ConsensusProtocol::set_local_clock`].
pub trait ConsensusProtocol {
    /// The protocol's message type.
    type Message: Message;

    /// This node's id.
    fn id(&self) -> NodeId;

    /// Informs the node of its **local** wall clock before a handler runs.
    /// The value is an input like any message — different nodes' clocks may
    /// disagree by up to the modeled skew bound, and nothing in a protocol
    /// core may treat it as shared truth. Used only by the leader-lease
    /// read path; the default no-op leaves a node *clockless*, in which
    /// case all lease logic is inert and linearizable reads always take the
    /// ReadIndex quorum round (exactly the pre-lease behavior — this is
    /// what keeps purely event-driven tests deterministic).
    fn set_local_clock(&mut self, _now: SimTime) {}

    /// Handles a message received from `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Message, out: &mut Actions<Self::Message>);

    /// Handles a timer of `kind` firing.
    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Self::Message>);

    /// Submits a typed client request at this node (the gateway). The
    /// request is answered asynchronously through
    /// [`Observation::ClientResponse`] carrying a [`ClientOutcome`]; the
    /// caller retries the same `(session, seq)` on `Redirect`/`Retry`
    /// outcomes or after a timeout — writes are exactly-once under retry by
    /// the session dedup table.
    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Self::Message>);

    /// Called once when the node starts (or restarts after a crash) to arm
    /// initial timers.
    fn bootstrap(&mut self, out: &mut Actions<Self::Message>);

    /// Number of committed entries the node has not applied yet.
    ///
    /// Every protocol in this workspace applies at the commit point, so
    /// this is always zero and nothing in the tree calls it. It stays only
    /// because the `perf-trace` benchmark's `Traced<P>` wrapper overrides
    /// it, and `perf/` builds against this trait as it is.
    fn pending_applies(&self) -> u64 {
        0
    }

    /// Applies the entries [`ConsensusProtocol::pending_applies`] counts: a
    /// no-op for every protocol here, never called in the tree, and kept
    /// for the same `Traced<P>` override.
    fn drain_applies(&mut self, _out: &mut Actions<Self::Message>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_many_clones_per_recipient() {
        let mut a: Actions<u32> = Actions::new();
        a.send_many([NodeId(1), NodeId(2), NodeId(3)], 9);
        assert_eq!(a.sends.len(), 3);
        assert!(a.sends.iter().all(|(_, m)| *m == 9));
    }

    #[test]
    fn is_empty_and_clear() {
        let mut a: Actions<u32> = Actions::new();
        assert!(a.is_empty());
        a.observe(Observation::MessageIgnored { reason: "test" });
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn absorb_preserves_order() {
        let mut a: Actions<u32> = Actions::new();
        let mut b: Actions<u32> = Actions::new();
        a.send(NodeId(1), 1);
        b.send(NodeId(2), 2);
        b.set_timer(TimerKind::Election, SimDuration::from_millis(1));
        a.absorb(&mut b);
        assert_eq!(a.sends, vec![(NodeId(1), 1), (NodeId(2), 2)]);
        assert_eq!(a.timers.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn commit_records_scope() {
        use crate::{EntryId, LogEntry, Term};
        let mut a: Actions<u32> = Actions::new();
        let e = LogEntry::noop(Term(1), EntryId::new(NodeId(1), 0));
        a.commit(LogScope::Global, LogIndex(1), e.clone());
        a.commit(LogScope::Local, LogIndex(2), e);
        assert_eq!(a.commits[0].scope, LogScope::Global);
        assert_eq!(a.commits[1].scope, LogScope::Local);
    }
}
