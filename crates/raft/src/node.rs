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

use std::collections::BTreeMap;

use bytes::Bytes;
use des::{SimRng, SimTime};
use storage::StableState;
use wire::{
    Actions, ClientOp, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, EntryId,
    EntryList, LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, PersistCmd, SessionId,
    SessionTable, Snapshot, SparseLog, Term, TimerKind,
};

use crate::replica::{self, Replica, Reply};
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

/// The `(election, heartbeat)` timer kinds a classic Raft site arms.
const TIMERS: (TimerKind, TimerKind) = (TimerKind::Election, TimerKind::Heartbeat);

/// A classic Raft site.
#[derive(Debug)]
pub struct RaftNode {
    /// Everything a Raft-family engine carries: term, vote, log, applied
    /// image, role, configuration, replication cursors, read path.
    core: Replica,
    /// In-flight session writes submitted at this node, by proposal id (the
    /// gateway's retry table).
    pending: BTreeMap<EntryId, PendingWrite>,
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
            core: Replica::new(id, LogScope::Global, bootstrap, TIMERS, timing, rng),
            pending: BTreeMap::new(),
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
        node.core.restore(stable.global.clone());
        node
    }

    /// This node's current role.
    pub fn role(&self) -> Role {
        self.core.role
    }

    /// The current term.
    pub fn current_term(&self) -> Term {
        self.core.current_term
    }

    /// The highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.core.commit_index
    }

    /// The highest index applied to the state machine. Equal to
    /// [`RaftNode::commit_index`] except transiently under
    /// [`Timing::pipelined_apply`], between commit and the drain stage.
    pub fn applied_index(&self) -> LogIndex {
        self.core.applied.index()
    }

    /// The replicated log (read-only).
    pub fn log(&self) -> &SparseLog {
        &self.core.log
    }

    /// The latest snapshot covering the compacted prefix, if any.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.core.applied.snapshot()
    }

    /// Running digest of the committed sequence (the simulated state
    /// machine's state).
    pub fn state_digest(&self) -> u64 {
        self.core.applied.digest()
    }

    /// The configuration this node currently obeys.
    pub fn config(&self) -> &Configuration {
        &self.core.config
    }

    /// The node this site believes is leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.leader_hint
    }

    /// Number of proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.pending.len()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        self.core.applied.sessions()
    }

    /// Where each proposal id placed above the compaction horizon sits in
    /// the log.
    pub fn id_index(&self) -> &wire::IdMap<EntryId, LogIndex> {
        &self.core.id_index
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
        if self.core.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.core.leader_hint,
            });
        }
        self.core.learners.insert(node);
        self.core
            .next_index
            .insert(node, self.core.commit_index.next());
        self.core.match_index.insert(node, LogIndex::ZERO);
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
        if self.core.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.core.leader_hint,
            });
        }
        assert!(
            self.core.config.diff_is_single_change(&new_config),
            "configuration change must add or remove at most one site"
        );
        let id = self.core.ids.fresh_id(out);
        let entry = LogEntry::config(self.core.current_term, id, new_config);
        self.leader_append(entry, out);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn truncate_from(&mut self, from: LogIndex, out: &mut Actions<RaftMessage>) {
        for (_, e) in self.core.log.range(from, self.core.log.last_index()) {
            self.core.id_index.remove(&e.id);
        }
        self.core.log.truncate_from(from);
        out.persist(PersistCmd::Truncate {
            scope: LogScope::Global,
            from,
        });
        // A truncated config entry reverts the configuration to the latest
        // surviving one.
        if self.core.config_index >= from {
            if let Some((idx, cfg)) = self.core.log.latest_config() {
                self.core.config = cfg.clone();
                self.core.config_index = idx;
            }
        }
    }

    fn leader_append(&mut self, entry: LogEntry, out: &mut Actions<RaftMessage>) -> LogIndex {
        let index = self.core.log.last_index().next();
        self.core.insert_entry(index, entry, out);
        self.core.match_index.insert(self.core.id, index);
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
        self.core.become_follower(term, leader, out);
        self.core.reset_election_timer(out);
    }

    /// Accepts `leader` as the valid leader of `term` (at least ours).
    fn follow_leader(&mut self, term: Term, leader: NodeId, out: &mut Actions<RaftMessage>) {
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.core.reset_election_timer(out);
        }
    }

    fn start_election(&mut self, out: &mut Actions<RaftMessage>) {
        if !self.core.start_election(out) {
            return;
        }
        let last = self.core.log.last_index();
        let msg = RaftMessage::RequestVote {
            term: self.core.current_term,
            candidate: self.core.id,
            last_log_index: last,
            last_log_term: self.core.log.term_at(last),
        };
        out.send_many(self.core.config.peers(self.core.id), msg);
        self.maybe_win(out);
    }

    fn maybe_win(&mut self, out: &mut Actions<RaftMessage>) {
        if self.core.won_election() {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Actions<RaftMessage>) {
        let start = self.core.log.last_index().next();
        self.core.become_leader(start, out);
        for learner in &self.core.learners {
            self.core.next_index.insert(*learner, start);
            self.core.match_index.insert(*learner, LogIndex::ZERO);
        }
        // Standard practice (Raft dissertation §6.4): commit a no-op of the
        // new term so earlier-term entries become committable.
        let id = self.core.ids.fresh_id(out);
        let noop = LogEntry::noop(self.core.current_term, id);
        self.leader_append(noop, out);
        self.core.start_heartbeats(self.core.log.last_index(), out);
    }

    /// Leader-side commit rule: the highest `k` with a classic quorum of
    /// `matchIndex ≥ k` and `log[k].term == currentTerm` becomes committed.
    fn advance_commit(&mut self, out: &mut Actions<RaftMessage>) {
        if self.core.role == Role::Leader {
            let k = self.core.quorum_commit_point(self.core.log.last_index());
            self.set_commit_index(k, out);
        }
    }

    /// Advances the commit index. Inline mode (the default) applies the
    /// newly committed range on the spot; under [`Timing::pipelined_apply`]
    /// the range is merely queued — `(applied_index, commit_index]` — and
    /// the embedding drains it as a separate stage, so the leader can
    /// assemble the next AppendEntries while this range applies.
    fn set_commit_index(&mut self, new_commit: LogIndex, out: &mut Actions<RaftMessage>) {
        if new_commit <= self.core.commit_index {
            return;
        }
        self.core.commit_index = new_commit;
        if !self.core.timing.pipelined_apply {
            self.apply_to_commit(out);
        }
    }

    /// Applies every committed-but-unapplied entry, in commit order, with
    /// effects identical to the inline path: digest fold, session-table
    /// apply, proposer/gateway notifications, commit records, compaction,
    /// and the release of reads whose floor the state machine just reached.
    fn apply_to_commit(&mut self, out: &mut Actions<RaftMessage>) {
        while self.core.applied.index() < self.core.commit_index {
            let k = self.core.applied.index().next();
            if let Some(entry) = self.core.log.get(k).cloned() {
                self.core.applied.fold_commit(k, entry.id);
                if entry.payload.is_config() {
                    out.observe(Observation::ConfigCommitted {
                        members: entry.as_config().map(Configuration::len).unwrap_or(0),
                    });
                }
                self.apply_committed_entry(k, &entry, out);
                self.core.applied.evict_idle_sessions(k, out);
                out.commit(LogScope::Global, k, entry);
            }
            self.core.applied.mark_applied(k);
        }
        // Classic Raft logs are dense, so the whole applied prefix is
        // contiguous and compactable.
        self.core.maybe_compact(out);
        self.core
            .reads
            .release_applied_reads(self.core.applied.index(), out);
    }

    /// Applies one committed entry to the (simulated) state machine: the
    /// session table for writes, plus proposer/gateway notifications.
    fn apply_committed_entry(
        &mut self,
        index: LogIndex,
        entry: &LogEntry,
        out: &mut Actions<RaftMessage>,
    ) {
        if entry.id.proposer == self.core.id {
            self.pending.remove(&entry.id);
        }
        let Some((session, seq)) = entry.payload.session_key() else {
            return;
        };
        let register = matches!(entry.payload, Payload::Register { .. });
        let outcome = self
            .core
            .applied
            .apply_client_write(session, seq, register, index, out);
        if self.core.client_writes.contains_key(&(session, seq)) {
            // The gateway observes its own commit: answer the client here.
            self.respond_client(self.core.id, session, seq, outcome, out);
        } else if self.core.role == Role::Leader && entry.id.proposer != self.core.id {
            // "The leader then notifies the proposer" — covers gateways that
            // lag behind the commit (they ignore non-pending replies).
            self.respond_client(entry.id.proposer, session, seq, outcome, out);
        }
    }

    /// Answers a client request (see [`Replica::respond_client`]); a write
    /// answered at its own gateway leaves the retry table.
    fn respond_client(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<RaftMessage>,
    ) {
        if let Some(id) = self.core.respond_client(to, session, seq, outcome, out) {
            self.pending.remove(&id);
        }
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
        if self.core.role != Role::Leader {
            if from != self.core.id {
                let outcome = ClientOutcome::Redirect {
                    leader_hint: self.core.leader_hint,
                };
                self.respond_client(from, session, seq, outcome, out);
            }
            return;
        }
        // Session dedup at the door: a seq the applied state already covers
        // is answered without touching the log — this is what survives
        // compaction and leader restarts (the table rides in the snapshot).
        // For a registration this is the idempotent re-register.
        if let Some(first_index) = self.core.applied.sessions().duplicate_of(session, seq) {
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(from, session, seq, outcome, out);
            return;
        }
        if self.core.id_index.contains_key(&id) {
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
        if !register && self.core.applied.is_expired_retry(session, seq) {
            let outcome = if self.core.applied_session_state_current() {
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
            LogEntry::register(self.core.current_term, id, session)
        } else {
            LogEntry::write(self.core.current_term, id, session, seq, data)
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
        debug_assert_eq!(self.core.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until the no-op of its own term commits (Raft §8):
        // until then the floor must not be served.
        if self.core.log.term_at(self.core.commit_index) != self.core.current_term {
            self.respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            return;
        }
        if self.core.register_read(session, seq, reply_to, out) {
            // Confirm now rather than waiting out the heartbeat period.
            self.core
                .dispatch_append_entries(self.core.log.last_index(), out);
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
        if term < self.core.current_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        // Valid leader for this (possibly newer) term.
        self.follow_leader(term, leader, out);

        // Log-matching check.
        if !prev_index.is_zero() && self.core.log.term_at(prev_index) != prev_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    // Safe resume hint: everything committed here matches the
                    // leader (Invariant 1), so the leader can restart there.
                    match_index: self.core.commit_index,
                    probe,
                    // Even a failed append came from the valid leader of this
                    // term (checked above), so the vote-hold grant is sound —
                    // it keeps a briefly log-diverged follower from voiding
                    // its leader's lease mid-repair.
                    lease_until: self.core.reads.emit_lease_grant(leader),
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
        let insert_bound = self.core.insert_bound();
        let mut last_new = prev_index;
        for (idx, entry) in entries.iter() {
            if idx.as_u64() > insert_bound {
                break;
            }
            // Entries at or below the commit index are already decided
            // (and possibly compacted away); writing there is never needed
            // and would violate the compaction horizon.
            if *idx > self.core.commit_index && self.core.log.term_at(*idx) != entry.term {
                if self.core.log.get(*idx).is_some() {
                    self.truncate_from(*idx, out);
                }
                self.core.insert_entry(*idx, entry.clone(), out);
            }
            last_new = *idx;
        }

        if leader_commit > self.core.commit_index {
            let new_commit = leader_commit.min(last_new);
            self.set_commit_index(new_commit, out);
        }

        out.send(
            from,
            RaftMessage::AppendEntriesReply {
                term: self.core.current_term,
                success: true,
                match_index: last_new,
                probe,
                lease_until: self.core.reads.emit_lease_grant(leader),
            },
        );
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
        if term >= self.core.current_term {
            self.follow_leader(term, leader, out);
        }
        let last_index = snapshot.last_index;
        if !self.core.install_snapshot(from, term, snapshot, out) {
            return;
        }
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        for (session, seq, id, first_index) in self
            .core
            .applied
            .sweep_client_pending(&self.core.client_writes)
        {
            let register = self.pending.get(&id).is_some_and(|w| w.register);
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.core.id, session, seq, outcome, out);
        }
        self.core.reads.release_applied_reads(last_index, out);
        out.send(
            from,
            RaftMessage::InstallSnapshotReply {
                term: self.core.current_term,
                last_index,
            },
        );
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
        let Some(current) = self.core.screen_vote_request(term, candidate, out) else {
            return;
        };
        if term > self.core.current_term {
            self.become_follower(term, None, out);
        }
        let my_last = self.core.log.last_index();
        let my_last_term = self.core.log.term_at(my_last);
        let up_to_date = (last_log_term, last_log_index) >= (my_last_term, my_last);
        let granted = current && self.core.grant_vote(candidate, up_to_date, out);
        out.send(
            from,
            RaftMessage::RequestVoteReply {
                term: self.core.current_term,
                granted,
            },
        );
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
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    /// Routes an in-flight session write: straight into the log at the
    /// leader, to the hinted leader otherwise, to every peer when no hint
    /// exists (non-leaders answer with a redirect).
    fn route_write(&mut self, id: EntryId, w: PendingWrite, out: &mut Actions<RaftMessage>) {
        if self.core.role == Role::Leader {
            self.on_propose(self.core.id, id, w.session, w.seq, w.data, w.register, out);
            return;
        }
        if w.register {
            // Registration is leader-only: the Propose message carries no op
            // kind, so a non-leader gateway surfaces a redirect and the
            // client re-targets the hinted leader itself.
            let outcome = ClientOutcome::Redirect {
                leader_hint: self.core.leader_hint,
            };
            self.respond_client(self.core.id, w.session, w.seq, outcome, out);
            return;
        }
        let msg = RaftMessage::Propose {
            id,
            session: w.session,
            seq: w.seq,
            data: w.data,
        };
        if let Some(leader) = self.core.leader_hint {
            out.send(leader, msg);
        } else {
            out.send_many(self.core.config.peers(self.core.id), msg);
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
        if let Some(first_index) = self.core.applied.sessions().duplicate_of(session, seq) {
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.core.id, session, seq, outcome, out);
            return;
        }
        if self.core.client_writes.contains_key(&(session, seq)) {
            // Already in flight: the retry timer keeps pushing it.
            out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
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
            && self.core.applied.is_expired_retry(session, seq)
            && self.core.applied_session_state_current()
        {
            self.respond_client(
                self.core.id,
                session,
                seq,
                ClientOutcome::SessionExpired,
                out,
            );
            return;
        }
        let id = self.core.ids.fresh_id(out);
        let w = PendingWrite {
            session,
            seq,
            data,
            register,
        };
        self.pending.insert(id, w.clone());
        self.core.client_writes.insert((session, seq), id);
        self.route_write(id, w, out);
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    /// Gateway handling of a typed outcome arriving from another node.
    fn on_client_reply(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<RaftMessage>,
    ) {
        if self.core.absorbs_redirect(session, seq, &outcome) {
            return;
        }
        if self.core.client_writes.contains_key(&(session, seq))
            || self.core.reads.is_local(session, seq)
        {
            self.respond_client(self.core.id, session, seq, outcome, out);
        }
    }
}

impl ConsensusProtocol for RaftNode {
    type Message = RaftMessage;

    fn id(&self) -> NodeId {
        self.core.id
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.core.reads.set_local_clock(now);
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
                if !self.core.config.contains(from) && !self.core.learners.contains(&from) {
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
                if self.core.on_client_read(from, session, seq, out) {
                    self.register_read(session, seq, from, out);
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
            } => {
                let matched = success.then_some(match_index);
                match self.core.on_ack(from, term, matched, lease_until, out) {
                    Reply::NewerTerm => self.become_follower(term, None, out),
                    Reply::Dropped => {}
                    Reply::Counted => {
                        self.advance_commit(out);
                        let applied = self.core.applied.index();
                        self.core
                            .reads
                            .note_read_ack(from, probe, applied, &self.core.config, out);
                    }
                    // Back off using the follower's hint (its commit index).
                    Reply::Rejected => {
                        self.core.next_index.insert(from, match_index.next());
                    }
                }
            }
            RaftMessage::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, candidate, last_log_index, last_log_term, out),
            RaftMessage::RequestVoteReply { term, granted } => {
                match self.core.on_vote_reply(from, term, granted) {
                    Reply::NewerTerm => self.become_follower(term, None, out),
                    Reply::Counted => self.maybe_win(out),
                    Reply::Dropped | Reply::Rejected => {}
                }
            }
            RaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(from, term, leader, snapshot, out),
            // An ack of the snapshot's prefix (it carries no lease grant).
            RaftMessage::InstallSnapshotReply { term, last_index } => {
                match self
                    .core
                    .on_ack(from, term, Some(last_index), SimTime::ZERO, out)
                {
                    Reply::NewerTerm => self.become_follower(term, None, out),
                    Reply::Counted => self.advance_commit(out),
                    Reply::Dropped | Reply::Rejected => {}
                }
            }
        }
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<RaftMessage>) {
        match kind {
            TimerKind::Election
                if self.core.role != Role::Leader => {
                    self.start_election(out);
                }
            TimerKind::Heartbeat
                if self.core.role == Role::Leader => {
                    self.core.heartbeat(self.core.log.last_index(), out);
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
                    SessionId::assigned(self.core.id, self.core.ids.next_seq())
                } else {
                    session
                };
                self.submit_write(session, 1, Bytes::new(), true, out);
            }
            ClientOp::Read(consistency) => {
                if self.core.client_read(session, seq, consistency, out) {
                    self.register_read(session, seq, self.core.id, out);
                }
            }
        }
    }

    fn bootstrap(&mut self, out: &mut Actions<RaftMessage>) {
        self.core.reset_election_timer(out);
    }

    fn pending_applies(&self) -> u64 {
        self.core.applied.pending_applies(self.core.commit_index)
    }

    fn drain_applies(&mut self, out: &mut Actions<RaftMessage>) {
        self.apply_to_commit(out);
    }
}
