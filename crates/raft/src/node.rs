//! The classic Raft node (§III-A), sans-IO.
//!
//! Implements leader election, log replication, commitment, proposer
//! redirection/retry, and administrator-driven membership change — the
//! baseline the paper compares Fast Raft and C-Raft against.
//!
//! ## Event timing (matches the paper's evaluation setup)
//!
//! - AppendEntries dispatch is **heartbeat-gated**: the leader sends entries
//!   and heartbeats only on its periodic [`TimerKind::Heartbeat`] tick, as in
//!   the paper's "Periodically run by the leader" pseudocode.
//! - Commit-index advancement is **event-driven** on acknowledgement receipt
//!   ("When the leader receives AppendEntries message response"), and
//!   proposers are notified immediately on commit.
//!
//! With the paper's closed-loop proposers this yields a commit latency of
//! roughly one heartbeat period — the ~100 ms classic-Raft baseline of
//! Fig. 3.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bytes::Bytes;
use des::{SimRng, SimTime};
use storage::StableState;
use wire::{
    Actions, ClientOp, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, Consistency,
    EntryId, EntryList, LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, PersistCmd,
    SessionId, SessionTable, Snapshot, SparseLog, Term, TimerKind, MAX_INSERT_WINDOW,
};

use crate::replica::{self, Applied, ProposalIds, ReadPath};
use crate::{RaftMessage, Timing};

/// The role a site currently plays (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica; votes in elections.
    Follower,
    /// Election in progress, requesting votes.
    Candidate,
    /// The unique coordinator of the current term.
    Leader,
}

/// Error returned by leader-only administrative operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotLeader {
    /// The most recently observed leader, if any.
    pub leader_hint: Option<NodeId>,
}

impl std::fmt::Display for NotLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not the leader (hint: {:?})", self.leader_hint)
    }
}

impl std::error::Error for NotLeader {}

/// A session-tagged client write traveling through the gateway's retry
/// machinery until its commit is observed.
#[derive(Clone, Debug)]
struct PendingWrite {
    session: SessionId,
    seq: u64,
    data: Bytes,
    /// `true` for an explicit session registration ([`ClientOp::Register`]):
    /// leader-only (the `Propose` wire message carries no op kind), so a
    /// non-leader routing answers with a redirect instead of forwarding.
    register: bool,
}

/// A classic Raft site.
#[derive(Debug)]
pub struct RaftNode {
    id: NodeId,
    timing: Timing,
    rng: SimRng,

    // ---- persistent state (mirrored to stable storage via PersistCmd) ----
    current_term: Term,
    voted_for: Option<NodeId>,
    log: SparseLog,

    // ---- volatile state ----
    commit_index: LogIndex,
    /// The applied image of `log` (deterministic across replicas): applied
    /// index, digest, session table, cached snapshot.
    applied: Applied,
    role: Role,
    leader_hint: Option<NodeId>,
    /// Last configuration *inserted* into the log (§III-A).
    config: Configuration,
    /// Index of that configuration entry (ZERO for the bootstrap config).
    config_index: LogIndex,
    /// Votes received while candidate.
    votes: BTreeSet<NodeId>,

    // ---- leader volatile state ----
    next_index: BTreeMap<NodeId, LogIndex>,
    match_index: BTreeMap<NodeId, LogIndex>,
    /// Catch-up (non-voting) members being prepared to join.
    learners: BTreeSet<NodeId>,

    // ---- gateway (client-facing) state ----
    ids: ProposalIds,
    /// In-flight session writes submitted at this node, by proposal id.
    pending: BTreeMap<EntryId, PendingWrite>,
    /// `(session, seq)` → proposal id for in-flight writes (client retry
    /// idempotence at the gateway).
    client_writes: HashMap<(SessionId, u64), EntryId>,

    // ---- linearizable reads: ReadIndex, lease, vote hold, local clock ----
    reads: ReadPath,

    // ---- leader bookkeeping ----
    /// Where each known proposal id sits in our log (dedup + notification).
    id_index: HashMap<EntryId, LogIndex>,
    /// Scratch for one AppendEntries dispatch's `(nextIndex, follower)`
    /// pairs: empty between steps, capacity retained.
    append_scratch: Vec<(LogIndex, NodeId)>,
}

impl RaftNode {
    /// Creates a fresh node with a bootstrap configuration known to all
    /// initial members.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is empty or does not contain `id`, or if
    /// `timing` is inconsistent (see [`Timing::validate`]).
    pub fn new(id: NodeId, bootstrap: Configuration, timing: Timing, rng: SimRng) -> Self {
        timing.validate();
        assert!(!bootstrap.is_empty(), "bootstrap configuration is empty");
        assert!(
            bootstrap.contains(id),
            "node {id} not in bootstrap configuration"
        );
        RaftNode {
            id,
            timing,
            rng,
            current_term: Term::ZERO,
            voted_for: None,
            log: SparseLog::new(),
            commit_index: LogIndex::ZERO,
            applied: Applied::new(LogScope::Global, &timing),
            role: Role::Follower,
            leader_hint: None,
            config: bootstrap,
            config_index: LogIndex::ZERO,
            votes: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            learners: BTreeSet::new(),
            ids: ProposalIds::new(id, LogScope::Global),
            pending: BTreeMap::new(),
            client_writes: HashMap::new(),
            reads: ReadPath::new(id, LogScope::Global, &timing),
            id_index: HashMap::new(),
            append_scratch: Vec::new(),
        }
    }

    /// Rebuilds a node from stable storage after a crash (§II). Volatile
    /// state — commit index, role, leader knowledge — is relearned from the
    /// protocol.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        let mut node = RaftNode::new(id, bootstrap, timing, rng);
        node.current_term = stable.global.current_term;
        node.voted_for = stable.global.voted_for;
        node.log = stable.global.log.clone();
        // Snapshot-aware recovery: the snapshot's prefix is known committed
        // and already applied, so the commit index resumes at the compaction
        // horizon instead of replaying (now unavailable) history.
        node.commit_index = node.log.compacted_through();
        if let Some(snap) = &stable.global.snapshot {
            node.config = snap.config.clone();
            node.config_index = snap.last_index;
        }
        node.applied = Applied::recover(
            LogScope::Global,
            &timing,
            stable.global.snapshot.clone(),
            node.commit_index,
        );
        if let Some((idx, cfg)) = node.log.latest_config() {
            node.config = cfg.clone();
            node.config_index = idx;
        }
        for (idx, entry) in node.log.iter() {
            node.id_index.insert(entry.id, idx);
        }
        // Resume the proposal counter above every persisted reservation:
        // re-minting a pre-crash id would hit the peers' id-dedup and
        // silently answer the *old* entry's commit for the new proposal.
        node.ids = ProposalIds::resume(id, LogScope::Global, stable.global.proposal_seq_floor);
        node
    }

    /// This node's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The current term.
    pub fn current_term(&self) -> Term {
        self.current_term
    }

    /// The highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// The highest index applied to the state machine. Equal to
    /// [`RaftNode::commit_index`] except transiently under
    /// [`Timing::pipelined_apply`], between commit and the drain stage.
    pub fn applied_index(&self) -> LogIndex {
        self.applied.index()
    }

    /// The replicated log (read-only).
    pub fn log(&self) -> &SparseLog {
        &self.log
    }

    /// The latest snapshot covering the compacted prefix, if any.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.applied.snapshot()
    }

    /// Running digest of the committed sequence (the simulated state
    /// machine's state).
    pub fn state_digest(&self) -> u64 {
        self.applied.digest()
    }

    /// The configuration this node currently obeys.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The node this site believes is leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Number of proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.pending.len()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        self.applied.sessions()
    }

    // ------------------------------------------------------------------
    // Administrative API (the paper assumes a system administrator drives
    // classic-Raft membership changes, §III-A).
    // ------------------------------------------------------------------

    /// Registers a catch-up (non-voting) member the leader replicates to.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] when called on a non-leader.
    pub fn admin_add_learner(&mut self, node: NodeId) -> Result<(), NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.leader_hint,
            });
        }
        self.learners.insert(node);
        self.next_index.insert(node, self.commit_index.next());
        self.match_index.insert(node, LogIndex::ZERO);
        Ok(())
    }

    /// Proposes a new configuration (single-site change enforced), appending
    /// a config entry to the leader's log. The change takes effect at each
    /// site when *inserted* (§III-A) and is safe once committed.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] on a non-leader.
    ///
    /// # Panics
    ///
    /// Panics if `new_config` differs from the current configuration by more
    /// than one site (§IV-D safety precondition).
    pub fn admin_propose_config(
        &mut self,
        new_config: Configuration,
        out: &mut Actions<RaftMessage>,
    ) -> Result<EntryId, NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.leader_hint,
            });
        }
        assert!(
            self.config.diff_is_single_change(&new_config),
            "configuration change must add or remove at most one site"
        );
        let id = self.ids.fresh_id(out);
        let entry = LogEntry::config(self.current_term, id, new_config);
        self.leader_append(entry, out);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn persist_term_vote(&self, out: &mut Actions<RaftMessage>) {
        replica::persist_term_vote(LogScope::Global, self.current_term, self.voted_for, out);
    }

    fn insert_entry(&mut self, index: LogIndex, entry: LogEntry, out: &mut Actions<RaftMessage>) {
        self.id_index.insert(entry.id, index);
        if let Some(cfg) = entry.as_config() {
            // "Each site considers the last appended configuration entry to
            // be its current configuration."
            if index >= self.config_index {
                self.config = cfg.clone();
                self.config_index = index;
            }
        }
        out.persist(PersistCmd::Insert {
            scope: LogScope::Global,
            index,
            entry: entry.clone(),
        });
        self.log.insert(index, entry);
    }

    fn truncate_from(&mut self, from: LogIndex, out: &mut Actions<RaftMessage>) {
        let removed: Vec<(LogIndex, EntryId)> = self
            .log
            .range(from, self.log.last_index())
            .map(|(i, e)| (i, e.id))
            .collect();
        for (_, id) in &removed {
            self.id_index.remove(id);
        }
        self.log.truncate_from(from);
        out.persist(PersistCmd::Truncate {
            scope: LogScope::Global,
            from,
        });
        // A truncated config entry reverts the configuration to the latest
        // surviving one.
        if self.config_index >= from {
            if let Some((idx, cfg)) = self.log.latest_config() {
                self.config = cfg.clone();
                self.config_index = idx;
            }
        }
    }

    fn leader_append(&mut self, entry: LogEntry, out: &mut Actions<RaftMessage>) -> LogIndex {
        let index = self.log.last_index().next();
        self.insert_entry(index, entry, out);
        self.match_index.insert(self.id, index);
        // A single-node configuration reaches quorum on its own ack.
        self.advance_commit(out);
        index
    }

    fn become_follower(
        &mut self,
        term: Term,
        leader: Option<NodeId>,
        out: &mut Actions<RaftMessage>,
    ) {
        let was_leader = self.role == Role::Leader;
        self.reads.fail_pending_reads(out);
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
            self.persist_term_vote(out);
        }
        self.role = Role::Follower;
        if leader.is_some() {
            self.leader_hint = leader;
        }
        self.votes.clear();
        if was_leader {
            out.cancel_timer(TimerKind::Heartbeat);
        }
        self.reset_election_timer(out);
        out.observe(Observation::BecameFollower {
            term: self.current_term,
        });
    }

    fn reset_election_timer(&mut self, out: &mut Actions<RaftMessage>) {
        replica::reset_election_timer(&self.timing, &mut self.rng, TimerKind::Election, out);
    }

    fn start_election(&mut self, out: &mut Actions<RaftMessage>) {
        if !self.config.contains(self.id) {
            // A removed site must not start elections.
            out.observe(Observation::MessageIgnored {
                reason: "election by non-member suppressed",
            });
            self.reset_election_timer(out);
            return;
        }
        self.role = Role::Candidate;
        self.current_term = self.current_term.next();
        self.voted_for = Some(self.id);
        self.persist_term_vote(out);
        self.votes.clear();
        self.votes.insert(self.id);
        out.observe(Observation::ElectionStarted {
            term: self.current_term,
        });
        let last = self.log.last_index();
        let msg = RaftMessage::RequestVote {
            term: self.current_term,
            candidate: self.id,
            last_log_index: last,
            last_log_term: self.log.term_at(last),
        };
        let peers: Vec<NodeId> = self.config.peers(self.id).collect();
        out.send_many(peers, msg);
        self.reset_election_timer(out);
        self.maybe_win(out);
    }

    fn maybe_win(&mut self, out: &mut Actions<RaftMessage>) {
        if self.role != Role::Candidate {
            return;
        }
        let quorum = self.config.classic_quorum();
        let valid_votes = self
            .votes
            .iter()
            .filter(|v| self.config.contains(**v))
            .count();
        if valid_votes >= quorum {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Actions<RaftMessage>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        out.observe(Observation::BecameLeader {
            term: self.current_term,
        });
        self.reads.arm_lease();
        let start = self.log.last_index().next();
        self.next_index.clear();
        self.match_index.clear();
        for peer in self.config.iter().chain(self.learners.iter().copied()) {
            self.next_index.insert(peer, start);
            self.match_index.insert(peer, LogIndex::ZERO);
        }
        // Standard practice (Raft dissertation §6.4): commit a no-op of the
        // new term so earlier-term entries become committable.
        let id = self.ids.fresh_id(out);
        let noop = LogEntry::noop(self.current_term, id);
        self.leader_append(noop, out);
        out.cancel_timer(TimerKind::Election);
        // Initial heartbeat immediately; steady-state dispatch stays
        // heartbeat-gated.
        self.dispatch_append_entries(out);
        out.set_timer(TimerKind::Heartbeat, self.timing.heartbeat);
    }

    fn dispatch_append_entries(&mut self, out: &mut Actions<RaftMessage>) {
        let last = self.log.last_index();
        let budget = self.timing.append_budget();
        // Group followers by nextIndex: one budgeted batch is assembled per
        // distinct resume point and the Arc-shared EntryList handle is
        // cloned per recipient, so the fan-out shares a single allocation.
        let mut groups = std::mem::take(&mut self.append_scratch);
        let followers = self
            .config
            .peers(self.id)
            .chain(self.learners.iter().copied().filter(|l| *l != self.id));
        replica::group_by_next_index(
            &mut groups,
            followers,
            &self.next_index,
            self.commit_index.next(),
        );
        for peers in groups.chunk_by(|a, b| a.0 == b.0) {
            let next = peers[0].0;
            // A follower whose resume point fell below the first retained
            // index cannot be served from the log anymore: transfer the
            // compacted prefix as a snapshot instead (its ack moves
            // nextIndex above the horizon and replication resumes normally).
            if next < self.log.first_index() {
                if let Some(snapshot) =
                    self.applied
                        .current_snapshot(&self.log, &self.config, self.config_index)
                {
                    for &(_, peer) in peers {
                        out.send(
                            peer,
                            RaftMessage::InstallSnapshot {
                                term: self.current_term,
                                leader: self.id,
                                snapshot: snapshot.clone(),
                            },
                        );
                    }
                }
                continue;
            }
            let prev_index = next.prev_saturating();
            let prev_term = self.log.term_at(prev_index);
            let entries = if last >= next {
                self.log.collect_range_budgeted(next, last, budget)
            } else {
                EntryList::empty()
            };
            for &(_, peer) in peers {
                out.send(
                    peer,
                    RaftMessage::AppendEntries {
                        term: self.current_term,
                        leader: self.id,
                        prev_index,
                        prev_term,
                        entries: entries.clone(),
                        leader_commit: self.commit_index,
                        probe: self.reads.probe(),
                    },
                );
            }
        }
        self.append_scratch = groups;
    }

    /// Leader-side commit rule: the highest `k` with a classic quorum of
    /// `matchIndex ≥ k` and `log[k].term == currentTerm` becomes committed.
    fn advance_commit(&mut self, out: &mut Actions<RaftMessage>) {
        if self.role != Role::Leader {
            return;
        }
        let quorum = self.config.classic_quorum();
        let mut k = self.log.last_index();
        while k > self.commit_index {
            if self.log.term_at(k) == self.current_term {
                let acks = self
                    .config
                    .iter()
                    .filter(|m| self.match_index.get(m).copied().unwrap_or(LogIndex::ZERO) >= k)
                    .count();
                if acks >= quorum {
                    break;
                }
            }
            k = k.prev();
        }
        if k > self.commit_index {
            self.set_commit_index(k, out);
        }
    }

    /// Advances the commit index. Inline mode (the default) applies the
    /// newly committed range on the spot; under [`Timing::pipelined_apply`]
    /// the range is merely queued — `(applied_index, commit_index]` — and
    /// the embedding drains it as a separate stage, so the leader can
    /// assemble the next AppendEntries while this range applies.
    fn set_commit_index(&mut self, new_commit: LogIndex, out: &mut Actions<RaftMessage>) {
        if new_commit <= self.commit_index {
            return;
        }
        self.commit_index = new_commit;
        if !self.timing.pipelined_apply {
            self.apply_to_commit(out);
        }
    }

    /// Applies every committed-but-unapplied entry, in commit order, with
    /// effects identical to the inline path: digest fold, session-table
    /// apply, proposer/gateway notifications, commit records, compaction,
    /// and the release of reads whose floor the state machine just reached.
    fn apply_to_commit(&mut self, out: &mut Actions<RaftMessage>) {
        while self.applied.index() < self.commit_index {
            let k = self.applied.index().next();
            if let Some(entry) = self.log.get(k).cloned() {
                self.applied.fold_commit(k, entry.id);
                if entry.payload.is_config() {
                    out.observe(Observation::ConfigCommitted {
                        members: entry.as_config().map(Configuration::len).unwrap_or(0),
                    });
                }
                self.apply_committed_entry(k, &entry, out);
                self.applied.evict_idle_sessions(k, out);
                out.commit(LogScope::Global, k, entry);
            }
            self.applied.mark_applied(k);
        }
        // Classic Raft logs are dense, so the whole applied prefix is
        // contiguous and compactable.
        self.applied
            .maybe_compact(&mut self.log, &self.config, self.config_index, out);
        self.reads.release_applied_reads(self.applied.index(), out);
    }

    /// Applies one committed entry to the (simulated) state machine: the
    /// session table for writes, plus proposer/gateway notifications.
    fn apply_committed_entry(
        &mut self,
        index: LogIndex,
        entry: &LogEntry,
        out: &mut Actions<RaftMessage>,
    ) {
        if entry.id.proposer == self.id {
            self.pending.remove(&entry.id);
        }
        let Some((session, seq)) = entry.payload.session_key() else {
            return;
        };
        let register = matches!(entry.payload, Payload::Register { .. });
        let outcome = self
            .applied
            .apply_client_write(session, seq, register, index, out);
        if self.client_writes.contains_key(&(session, seq)) {
            // The gateway observes its own commit: answer the client here.
            self.respond_client(self.id, session, seq, outcome, out);
        } else if self.role == Role::Leader && entry.id.proposer != self.id {
            // "The leader then notifies the proposer" — covers gateways that
            // lag behind the commit (they ignore non-pending replies).
            self.respond_client(entry.id.proposer, session, seq, outcome, out);
        }
    }

    /// Answers a client request: as an observation when the gateway is this
    /// node, as a [`RaftMessage::ClientReply`] otherwise.
    fn respond_client(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<RaftMessage>,
    ) {
        if to == self.id {
            if let Some(id) = self.client_writes.remove(&(session, seq)) {
                self.pending.remove(&id);
            }
            self.reads.forget_local(session, seq);
        }
        replica::reply(self.id, to, session, seq, outcome, out);
    }

    fn applied_session_state_current(&self) -> bool {
        self.applied.applied_session_state_current(
            self.role == Role::Leader,
            &self.log,
            self.commit_index,
            self.current_term,
        )
    }

    /// Leader door for a session write or an explicit session registration
    /// (the committed [`Payload::Register`] consumes seq 1 of the session, so
    /// a later eviction can never leave a re-appliable *data* write at the
    /// session's boundary; see [`ClientOp::Register`]). Non-leaders redirect.
    #[allow(clippy::too_many_arguments)]
    fn on_propose(
        &mut self,
        from: NodeId,
        id: EntryId,
        session: SessionId,
        seq: u64,
        data: Bytes,
        register: bool,
        out: &mut Actions<RaftMessage>,
    ) {
        if self.role != Role::Leader {
            if from != self.id {
                let outcome = ClientOutcome::Redirect {
                    leader_hint: self.leader_hint,
                };
                self.respond_client(from, session, seq, outcome, out);
            }
            return;
        }
        // Session dedup at the door: a seq the applied state already covers
        // is answered without touching the log — this is what survives
        // compaction and leader restarts (the table rides in the snapshot).
        // For a registration this is the idempotent re-register.
        if let Some(first_index) = self.applied.sessions().duplicate_of(session, seq) {
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(from, session, seq, outcome, out);
            return;
        }
        if self.id_index.contains_key(&id) {
            // In-flight duplicate (gateway retried): already replicating.
            return;
        }
        // Stale write from an expired (evicted) session. This must run
        // *after* the in-flight dedup above, and the terminal refusal is
        // only trustworthy once this leader's applied table provably
        // covers every commit (`applied_session_state_current`): a fresh
        // leader's table merely *lags* until an entry of its own term
        // commits, so "expired" can be a false positive for a live
        // session whose writes are committed but not yet applied here —
        // terminally refusing then ("placed nowhere") while the placement
        // survives and later applies would have the client reopen a
        // session and resubmit, applying the op twice. Until current, the
        // answer is a plain Retry; once current, refusal is exact and
        // terminal (re-sending the same seq would loop forever), and any
        // same-pair placement still in the log under a different proposal
        // id is skipped by the authoritative apply-time check.
        // Registrations have no such door: re-registering an evicted
        // session is harmless by construction — the registration carries
        // no value, so re-applying it merely re-opens an empty dedup window.
        if !register && self.applied.is_expired_retry(session, seq) {
            let outcome = if self.applied_session_state_current() {
                ClientOutcome::SessionExpired
            } else {
                ClientOutcome::Retry
            };
            self.respond_client(from, session, seq, outcome, out);
            return;
        }
        // In-flight duplicate under a *different* proposal id (the gateway
        // restarted and re-submitted the same session seq): let it through —
        // apply-time dedup keeps the second commit a no-op.
        let entry = if register {
            LogEntry::register(self.current_term, id, session)
        } else {
            LogEntry::write(self.current_term, id, session, seq, data)
        };
        self.leader_append(entry, out);
        // Dispatch stays heartbeat-gated; the entry travels on the next tick.
    }

    // ------------------------------------------------------------------
    // Linearizable reads (ReadIndex)
    // ------------------------------------------------------------------

    /// Leader side of a linearizable read: capture the commit floor, then
    /// confirm leadership with a heartbeat round before answering.
    fn register_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        out: &mut Actions<RaftMessage>,
    ) {
        debug_assert_eq!(self.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until the no-op of its own term commits (Raft §8):
        // until then the floor must not be served.
        if self.log.term_at(self.commit_index) != self.current_term {
            self.respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            return;
        }
        let (floor, applied) = (self.commit_index, self.applied.index());
        if self
            .reads
            .register_read(session, seq, reply_to, floor, applied, &self.config, out)
        {
            // Confirm now rather than waiting out the heartbeat period.
            self.dispatch_append_entries(out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        prev_term: Term,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
        out: &mut Actions<RaftMessage>,
    ) {
        if term < self.current_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        // Valid leader for this (possibly newer) term.
        if term > self.current_term || self.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }

        // Log-matching check.
        if !prev_index.is_zero() && self.log.term_at(prev_index) != prev_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.current_term,
                    success: false,
                    // Safe resume hint: everything committed here matches the
                    // leader (Invariant 1), so the leader can restart there.
                    match_index: self.commit_index,
                    probe,
                    // Even a failed append came from the valid leader of this
                    // term (checked above), so the vote-hold grant is sound —
                    // it keeps a briefly log-diverged follower from voiding
                    // its leader's lease mid-repair.
                    lease_until: self.reads.emit_lease_grant(leader),
                },
            );
            return;
        }

        // Defensive ceiling (shared with consensus-core via
        // `wire::MAX_INSERT_WINDOW`): the dense log materializes the
        // addressed span as slots, so an absurd index from a corrupt peer
        // must be dropped, not allocated. Classic-Raft entries are
        // contiguous from prev_index, so a jump past the window is
        // malformed — stop processing the batch there.
        let insert_bound =
            self.log.last_index().as_u64().max(self.commit_index.as_u64()) + MAX_INSERT_WINDOW;
        let mut last_new = prev_index;
        for (idx, entry) in entries.iter() {
            if idx.as_u64() > insert_bound {
                break;
            }
            // Entries at or below the commit index are already decided
            // (and possibly compacted away); writing there is never needed
            // and would violate the compaction horizon.
            if *idx > self.commit_index && self.log.term_at(*idx) != entry.term {
                if self.log.get(*idx).is_some() {
                    self.truncate_from(*idx, out);
                }
                self.insert_entry(*idx, entry.clone(), out);
            }
            last_new = *idx;
        }

        if leader_commit > self.commit_index {
            let new_commit = leader_commit.min(last_new);
            self.set_commit_index(new_commit, out);
        }

        out.send(
            from,
            RaftMessage::AppendEntriesReply {
                term: self.current_term,
                success: true,
                match_index: last_new,
                probe,
                lease_until: self.reads.emit_lease_grant(leader),
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_reply(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        probe: u64,
        lease_until: SimTime,
        out: &mut Actions<RaftMessage>,
    ) {
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Leader || term < self.current_term {
            return;
        }
        self.reads.record_grant(from, lease_until, out);
        if success {
            let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
            if match_index > *m {
                *m = match_index;
            }
            self.next_index.insert(from, match_index.next());
            self.advance_commit(out);
            self.reads
                .note_read_ack(from, probe, self.applied.index(), &self.config, out);
        } else {
            // Back off using the follower's hint (its commit index).
            self.next_index.insert(from, match_index.next());
        }
    }

    /// Follower side of a snapshot transfer: replace the compacted prefix
    /// wholesale and resume replication above it.
    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        snapshot: Snapshot,
        out: &mut Actions<RaftMessage>,
    ) {
        if term < self.current_term {
            out.send(
                from,
                RaftMessage::InstallSnapshotReply {
                    term: self.current_term,
                    last_index: LogIndex::ZERO,
                },
            );
            return;
        }
        if term > self.current_term || self.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        let last_index = snapshot.last_index;
        if last_index <= self.commit_index {
            // Stale transfer: everything it covers is already committed
            // here. Ack our actual coverage so the leader resumes higher.
            out.send(
                from,
                RaftMessage::InstallSnapshotReply {
                    term: self.current_term,
                    last_index: self.commit_index,
                },
            );
            return;
        }
        let old_commit = self.commit_index;
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        self.log.install_snapshot(last_index, snapshot.last_term);
        // Drop id mappings for entries the install discarded. Only mappings
        // at or below the *pre-install* commit index are known committed
        // (and may keep answering duplicate proposals as such) — an
        // uncommitted entry from a deposed leader's fork must not be
        // reported committed.
        let log = &self.log;
        self.id_index
            .retain(|_, idx| *idx <= old_commit || log.get(*idx).is_some());
        // Adopt the snapshot's configuration unless a *surviving* config
        // entry above the horizon supersedes it; a config entry the install
        // discarded (conflicting suffix) must no longer be obeyed.
        if self.config_index <= last_index || self.log.get(self.config_index).is_none() {
            self.config = snapshot.config.clone();
            self.config_index = last_index;
        }
        // The snapshot's applied state covers strictly more commits than
        // ours (last_index > old commit).
        self.applied.adopt(snapshot);
        self.commit_index = last_index;
        out.observe(Observation::SnapshotInstalled {
            scope: LogScope::Global,
            last_index,
        });
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        for (session, seq, id, first_index) in
            self.applied.sweep_client_pending(&self.client_writes)
        {
            let register = self.pending.get(&id).is_some_and(|w| w.register);
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.id, session, seq, outcome, out);
        }
        self.reads.release_applied_reads(last_index, out);
        out.send(
            from,
            RaftMessage::InstallSnapshotReply {
                term: self.current_term,
                last_index,
            },
        );
    }

    fn on_install_snapshot_reply(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: LogIndex,
        out: &mut Actions<RaftMessage>,
    ) {
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Leader || term < self.current_term {
            return;
        }
        let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
        if last_index > *m {
            *m = last_index;
        }
        self.next_index.insert(from, last_index.next());
        self.advance_commit(out);
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        candidate: NodeId,
        last_log_index: LogIndex,
        last_log_term: Term,
        out: &mut Actions<RaftMessage>,
    ) {
        if !self.config.contains(candidate) {
            out.observe(Observation::MessageIgnored {
                reason: "vote request from non-member",
            });
            return;
        }
        if self
            .reads
            .refuses_vote(candidate, self.role == Role::Leader, &self.config, out)
        {
            return;
        }
        if term < self.current_term {
            out.send(
                from,
                RaftMessage::RequestVoteReply {
                    term: self.current_term,
                    granted: false,
                },
            );
            return;
        }
        if term > self.current_term {
            self.become_follower(term, None, out);
        }
        let my_last = self.log.last_index();
        let my_last_term = self.log.term_at(my_last);
        let up_to_date = (last_log_term, last_log_index) >= (my_last_term, my_last);
        let can_vote = self.voted_for.is_none() || self.voted_for == Some(candidate);
        let granted = up_to_date && can_vote;
        if granted {
            self.voted_for = Some(candidate);
            self.persist_term_vote(out);
            self.reset_election_timer(out);
        }
        out.send(
            from,
            RaftMessage::RequestVoteReply {
                term: self.current_term,
                granted,
            },
        );
    }

    fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: Term,
        granted: bool,
        out: &mut Actions<RaftMessage>,
    ) {
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Candidate || term < self.current_term || !granted {
            return;
        }
        self.votes.insert(from);
        self.maybe_win(out);
    }

    fn resend_pending(&mut self, out: &mut Actions<RaftMessage>) {
        if self.pending.is_empty() {
            return;
        }
        let proposals: Vec<(EntryId, PendingWrite)> = self
            .pending
            .iter()
            .map(|(id, w)| (*id, w.clone()))
            .collect();
        for (id, w) in proposals {
            self.route_write(id, w, out);
        }
        out.set_timer(TimerKind::ProposalRetry, self.timing.proposal_timeout);
    }

    /// Routes an in-flight session write: straight into the log at the
    /// leader, to the hinted leader otherwise, to every peer when no hint
    /// exists (non-leaders answer with a redirect).
    fn route_write(&mut self, id: EntryId, w: PendingWrite, out: &mut Actions<RaftMessage>) {
        if self.role == Role::Leader {
            self.on_propose(self.id, id, w.session, w.seq, w.data, w.register, out);
            return;
        }
        if w.register {
            // Registration is leader-only: the Propose message carries no op
            // kind, so a non-leader gateway surfaces a redirect and the
            // client re-targets the hinted leader itself.
            let outcome = ClientOutcome::Redirect {
                leader_hint: self.leader_hint,
            };
            self.respond_client(self.id, w.session, w.seq, outcome, out);
            return;
        }
        let msg = RaftMessage::Propose {
            id,
            session: w.session,
            seq: w.seq,
            data: w.data,
        };
        if let Some(leader) = self.leader_hint {
            out.send(leader, msg);
        } else {
            let peers: Vec<NodeId> = self.config.peers(self.id).collect();
            out.send_many(peers, msg);
        }
    }

    /// Gateway door for a session write (or, with `register`, an explicit
    /// session registration, which consumes seq 1): answer from applied
    /// state when possible, otherwise place it in the retry machinery.
    fn submit_write(
        &mut self,
        session: SessionId,
        seq: u64,
        data: Bytes,
        register: bool,
        out: &mut Actions<RaftMessage>,
    ) {
        // Applied already? Answer without proposing (retry-safe).
        if let Some(first_index) = self.applied.sessions().duplicate_of(session, seq) {
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.id, session, seq, outcome, out);
            return;
        }
        if self.client_writes.contains_key(&(session, seq)) {
            // Already in flight: the retry timer keeps pushing it.
            out.set_timer(TimerKind::ProposalRetry, self.timing.proposal_timeout);
            return;
        }
        // Stale write from an expired session: the terminal refusal is only
        // exact when this gateway happens to be the leader with a provably
        // current applied table (see `on_propose`). Any other gateway's
        // table may simply lag the commit sequence, so it must not refuse —
        // the write is placed and routed to the leader, whose door (or the
        // authoritative apply-time check) rules, relayed back via
        // ClientReply. Registrations have no such door: re-registering an
        // evicted session merely re-opens an empty dedup window.
        if !register
            && self.applied.is_expired_retry(session, seq)
            && self.applied_session_state_current()
        {
            self.respond_client(self.id, session, seq, ClientOutcome::SessionExpired, out);
            return;
        }
        let id = self.ids.fresh_id(out);
        let w = PendingWrite {
            session,
            seq,
            data,
            register,
        };
        self.pending.insert(id, w.clone());
        self.client_writes.insert((session, seq), id);
        self.route_write(id, w, out);
        out.set_timer(TimerKind::ProposalRetry, self.timing.proposal_timeout);
    }

    /// Gateway handling of a typed outcome arriving from another node.
    fn on_client_reply(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<RaftMessage>,
    ) {
        if let ClientOutcome::Redirect { leader_hint } = &outcome {
            if let Some(hint) = leader_hint {
                self.leader_hint = Some(*hint);
            }
            // A redirected *write* stays pending: the ProposalRetry timer
            // resubmits it against the updated hint. Re-routing here
            // synchronously would ping-pong at network RTT against a
            // deposed leader that still hints itself (and broadcast-storm
            // while no hint exists). A redirected read surfaces to the
            // caller, who retries against the (now updated) hint.
            if self.client_writes.contains_key(&(session, seq)) {
                return;
            }
        }
        if self.client_writes.contains_key(&(session, seq)) || self.reads.is_local(session, seq) {
            self.respond_client(self.id, session, seq, outcome, out);
        }
    }
}

impl ConsensusProtocol for RaftNode {
    type Message = RaftMessage;

    fn id(&self) -> NodeId {
        self.id
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.reads.set_local_clock(now);
    }

    fn on_message(&mut self, from: NodeId, msg: RaftMessage, out: &mut Actions<RaftMessage>) {
        // Configuration filter: consensus messages from strangers are
        // ignored (§III-A). Client traffic is exempt: gateways need not be
        // voting members.
        match &msg {
            RaftMessage::Propose { .. }
            | RaftMessage::ClientRead { .. }
            | RaftMessage::ClientReply { .. } => {}
            _ => {
                if !self.config.contains(from) && !self.learners.contains(&from) {
                    out.observe(Observation::MessageIgnored {
                        reason: "sender not in configuration",
                    });
                    return;
                }
            }
        }
        match msg {
            RaftMessage::Propose {
                id,
                session,
                seq,
                data,
            } => self.on_propose(from, id, session, seq, data, false, out),
            RaftMessage::ClientRead { session, seq } => {
                if self.role == Role::Leader {
                    self.register_read(session, seq, from, out);
                } else {
                    out.send(
                        from,
                        RaftMessage::ClientReply {
                            session,
                            seq,
                            outcome: ClientOutcome::Redirect {
                                leader_hint: self.leader_hint,
                            },
                        },
                    );
                }
            }
            RaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => self.on_client_reply(session, seq, outcome, out),
            RaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
            } => self.on_append_entries(
                from,
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
                out,
            ),
            RaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => self.on_append_reply(from, term, success, match_index, probe, lease_until, out),
            RaftMessage::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, candidate, last_log_index, last_log_term, out),
            RaftMessage::RequestVoteReply { term, granted } => {
                self.on_vote_reply(from, term, granted, out)
            }
            RaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(from, term, leader, snapshot, out),
            RaftMessage::InstallSnapshotReply { term, last_index } => {
                self.on_install_snapshot_reply(from, term, last_index, out)
            }
        }
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<RaftMessage>) {
        match kind {
            TimerKind::Election
                if self.role != Role::Leader => {
                    self.start_election(out);
                }
            TimerKind::Heartbeat
                if self.role == Role::Leader => {
                    self.dispatch_append_entries(out);
                    out.set_timer(TimerKind::Heartbeat, self.timing.heartbeat);
                }
            TimerKind::ProposalRetry => self.resend_pending(out),
            _ => {}
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<RaftMessage>) {
        let ClientRequest { session, seq, op } = req;
        match op {
            ClientOp::Write(data) => self.submit_write(session, seq, data, false, out),
            ClientOp::Register => {
                // Server-assigned id on request: derived from this gateway's
                // node id and proposal counter, so concurrent registrations
                // at different gateways cannot collide. A *retry* of an
                // unassigned registration may open a second (unused)
                // session; the TTL reclaims it.
                let session = if session.is_unassigned() {
                    SessionId::assigned(self.id, self.ids.next_seq())
                } else {
                    session
                };
                self.submit_write(session, 1, Bytes::new(), true, out);
            }
            // A single-level deployment has one log: the local and global
            // commit floors coincide, so both stale consistencies answer
            // from `commit_index` immediately.
            ClientOp::Read(Consistency::StaleLocal)
            | ClientOp::Read(Consistency::StaleGlobal) => {
                out.observe(Observation::ClientResponse {
                    session,
                    seq,
                    outcome: ClientOutcome::ReadOk {
                        scope: LogScope::Global,
                        commit_floor: self.commit_index,
                    },
                });
            }
            ClientOp::Read(Consistency::Linearizable) => {
                if self.role == Role::Leader {
                    self.reads.track_local(session, seq);
                    self.register_read(session, seq, self.id, out);
                } else if let Some(leader) = self.leader_hint {
                    self.reads.track_local(session, seq);
                    out.send(leader, RaftMessage::ClientRead { session, seq });
                } else {
                    // No leader known: tell the caller to retry after a
                    // backoff (an election is likely in progress).
                    out.observe(Observation::ClientResponse {
                        session,
                        seq,
                        outcome: ClientOutcome::Retry,
                    });
                }
            }
        }
    }

    fn bootstrap(&mut self, out: &mut Actions<RaftMessage>) {
        self.reset_election_timer(out);
    }

    fn pending_applies(&self) -> u64 {
        self.applied.pending_applies(self.commit_index)
    }

    fn drain_applies(&mut self, out: &mut Actions<RaftMessage>) {
        self.apply_to_commit(out);
    }
}
