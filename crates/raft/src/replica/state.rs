//! [`Replica`]: the state and the protocol steps classic Raft and Fast Raft
//! carry identically.

use std::collections::{BTreeMap, BTreeSet};

use des::{IdMap, SimRng, SimTime};
use storage::ScopeState;
use wire::{
    session_state_current, Actions, Approval, ClientOutcome, Configuration, Consistency, EntryId,
    EntryList, LogEntry, LogIndex, LogScope, NodeId, Observation, PersistCmd, SessionId, Snapshot,
    SparseLog, Term, TimerKind, MAX_INSERT_WINDOW,
};

use super::{reply, Applied, ClientReplyMessage, ProposalIds, ReadPath};
use crate::{Role, Timing};

/// What a reply handler on [`Replica`] made of the reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Stamped with a newer term: the engine steps down to it.
    NewerTerm,
    /// Stale, refused, or addressed to a role this replica no longer holds.
    Dropped,
    /// Counted: a granted vote, an accepted append, an installed snapshot.
    Counted,
    /// A follower rejected the append; the engine picks the rewind point.
    Rejected,
}

/// One consensus level's Raft replica: terms and votes, the log and its
/// applied image, the leader's replication bookkeeping, and the gateway's
/// read and id tables — everything [`crate::RaftNode`] and
/// `consensus_core::FastRaftEngine` hold in common, with the protocol steps
/// that touch nothing else.
///
/// Fields are public because the engines' own steps (the propose/commit
/// rule, AppendEntries receipt, membership) read and write them directly;
/// the methods are the steps both engines used to spell out separately.
/// Each emits its effects into the caller's [`Actions`] in a fixed order and
/// draws from the election-timeout stream only where documented, so a
/// replica is as deterministic as the engine around it.
#[derive(Debug)]
pub struct Replica {
    /// This site.
    pub id: NodeId,
    /// The consensus level this replica runs at.
    pub scope: LogScope,
    /// The protocol timing in force.
    pub timing: Timing,
    election_timer: TimerKind,
    heartbeat_timer: TimerKind,
    rng: SimRng,

    // ---- persistent (mirrored to stable storage via PersistCmd) ----
    /// Latest term seen.
    pub current_term: Term,
    /// Candidate voted for in `current_term`.
    pub voted_for: Option<NodeId>,
    /// The replicated log.
    pub log: SparseLog,

    // ---- volatile ----
    /// Highest committed index.
    pub commit_index: LogIndex,
    /// The applied image of `log` (deterministic across replicas): applied
    /// index, digest, session table, cached snapshot.
    pub applied: Applied,
    /// Current role.
    pub role: Role,
    /// The site believed to lead.
    pub leader_hint: Option<NodeId>,
    /// Last configuration *inserted* into the log (§III-A).
    pub config: Configuration,
    /// Index of that configuration entry (ZERO for the bootstrap config).
    pub config_index: LogIndex,
    /// Votes received while candidate.
    votes: BTreeSet<NodeId>,

    // ---- leader volatile ----
    /// Per follower: the next index to send.
    pub next_index: BTreeMap<NodeId, LogIndex>,
    /// Per follower: the highest index known replicated there.
    pub match_index: BTreeMap<NodeId, LogIndex>,
    /// Catch-up (non-voting) members being prepared to join.
    pub learners: BTreeSet<NodeId>,

    // ---- gateway (client-facing) ----
    /// Proposal id minting.
    pub ids: ProposalIds,
    /// `(session, seq)` → proposal id for writes in flight at this gateway
    /// (client retry idempotence).
    pub client_writes: IdMap<(SessionId, u64), EntryId>,
    /// Linearizable reads: ReadIndex, lease, vote hold, local clock.
    pub reads: ReadPath,

    // ---- bookkeeping ----
    /// Where each proposal id placed above the compaction horizon sits in
    /// the log, gated slot reservations included (dedup + notification; see
    /// [`Replica::is_committed`]). An id at or below the horizon is
    /// forgotten: its `(session, seq)` key dedups a retry of it.
    pub id_index: IdMap<EntryId, LogIndex>,
    /// Scratch for one AppendEntries dispatch's `(nextIndex, follower)`
    /// pairs: empty between steps, capacity retained.
    append_scratch: Vec<(LogIndex, NodeId)>,
}

impl Replica {
    /// A fresh follower at term zero obeying `config`. `timers` names the
    /// `(election, heartbeat)` kinds this replica arms — the base pair, or
    /// the `Global*` pair at C-Raft's inter-cluster level.
    pub fn new(
        id: NodeId,
        scope: LogScope,
        config: Configuration,
        timers: (TimerKind, TimerKind),
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        Replica {
            id,
            scope,
            timing,
            election_timer: timers.0,
            heartbeat_timer: timers.1,
            rng,
            current_term: Term::ZERO,
            voted_for: None,
            log: SparseLog::new(),
            commit_index: LogIndex::ZERO,
            applied: Applied::new(scope, &timing),
            role: Role::Follower,
            leader_hint: None,
            config,
            config_index: LogIndex::ZERO,
            votes: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            learners: BTreeSet::new(),
            ids: ProposalIds::new(id, scope),
            client_writes: IdMap::default(),
            reads: ReadPath::new(id, scope, &timing),
            id_index: IdMap::default(),
            append_scratch: Vec::new(),
        }
    }

    /// Loads what this (fresh) replica `persisted` before a crash: snapshot
    /// (if any) + retained log suffix. The commit index resumes at the
    /// compaction horizon — everything the snapshot covers is known
    /// committed and already applied — and the rest of the volatile state
    /// is relearned from the protocol. The configuration is the log's
    /// latest config entry, falling back to the snapshot's, then the
    /// bootstrap one the replica was created with.
    pub fn restore(&mut self, persisted: ScopeState) {
        self.current_term = persisted.current_term;
        self.voted_for = persisted.voted_for;
        // Resume the proposal counter above every persisted reservation:
        // re-minting a pre-crash id would hit the peers' id-dedup and
        // silently answer the *old* entry's commit for the new proposal.
        self.ids = ProposalIds::resume(self.id, self.scope, persisted.proposal_seq_floor);
        self.log = persisted.log;
        if let Some(snap) = &persisted.snapshot {
            // Idempotent for a log already compacted to the snapshot; for a
            // log rebuilt some other way (C-Raft's global reconstruction) it
            // establishes the horizon and drops covered entries.
            self.log.install_snapshot(snap.last_index, snap.last_term);
            self.config = snap.config.clone();
            self.config_index = snap.last_index;
        }
        self.commit_index = self.log.compacted_through();
        self.applied = Applied::recover(
            self.scope,
            &self.timing,
            persisted.snapshot,
            self.commit_index,
        );
        if let Some((idx, cfg)) = self.log.latest_config() {
            self.config = cfg.clone();
            self.config_index = idx;
        }
        self.id_index = IdMap::default();
        for (index, entry) in self.log.iter() {
            self.id_index.insert(entry.id, index);
        }
    }

    /// `true` when proposal `id` is committed here: its slot is at or below
    /// the commit index and the log holds `id` there. The second half
    /// matters: a gated reservation maps an id to a slot its insert may
    /// never reach, and that slot can commit another entry.
    pub fn is_committed(&self, id: &EntryId) -> bool {
        self.id_index.get(id).is_some_and(|&k| {
            k <= self.commit_index && self.log.get(k).is_some_and(|e| e.id == *id)
        })
    }

    /// Persists the term and vote (write-ahead: durable before any message
    /// of the step leaves this site).
    fn persist_term_vote<M>(&self, out: &mut Actions<M>) {
        out.persist(PersistCmd::SetTermVote {
            scope: self.scope,
            term: self.current_term,
            voted_for: self.voted_for,
        });
    }

    /// (Re)arms the election timer with a fresh randomized timeout — the
    /// one place a replica draws from its random stream.
    pub fn reset_election_timer<M>(&mut self, out: &mut Actions<M>) {
        out.set_timer(
            self.election_timer,
            self.timing.election_timeout(&mut self.rng),
        );
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    /// Steps down to follower of `term` (adopting and persisting it when
    /// newer): parked reads fail with `Retry`, the vote book clears, a
    /// leader's heartbeat stops. Returns `true` when this replica was
    /// leading. Re-arming the election timer is left to the engine, which
    /// knows whether this site campaigns at all (a Fast Raft joiner does
    /// not) and which other leader timers to cancel first.
    pub fn become_follower<M: ClientReplyMessage>(
        &mut self,
        term: Term,
        leader: Option<NodeId>,
        out: &mut Actions<M>,
    ) -> bool {
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
            out.cancel_timer(self.heartbeat_timer);
        }
        out.observe(Observation::BecameFollower {
            term: self.current_term,
        });
        was_leader
    }

    /// Opens a candidacy: next term, self-vote (persisted), fresh election
    /// timeout. Returns `false` — having only re-armed the timer — at a
    /// site its own configuration no longer lists. The engine then sends
    /// its `RequestVote` and checks [`Replica::won_election`].
    pub fn start_election<M>(&mut self, out: &mut Actions<M>) -> bool {
        if !self.config.contains(self.id) {
            // A removed site must not start elections.
            out.observe(Observation::MessageIgnored {
                reason: "election by non-member suppressed",
            });
            self.reset_election_timer(out);
            return false;
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
        self.reset_election_timer(out);
        true
    }

    /// First half of handling a `RequestVote`: `None` when the request is
    /// dropped unanswered (a candidate outside the configuration, or a vote
    /// a lease promise forbids — without adopting the candidate's term),
    /// `Some(false)` when it is stale and answered with a refusal,
    /// `Some(true)` when it is current. The engine steps down first if
    /// `term` is newer, then calls [`Replica::grant_vote`].
    pub fn screen_vote_request<M>(
        &self,
        term: Term,
        candidate: NodeId,
        out: &mut Actions<M>,
    ) -> Option<bool> {
        if !self.config.contains(candidate) {
            out.observe(Observation::MessageIgnored {
                reason: "vote request from non-member",
            });
            return None;
        }
        let is_leader = self.role == Role::Leader;
        if self
            .reads
            .refuses_vote(candidate, is_leader, &self.config, out)
        {
            return None;
        }
        Some(term >= self.current_term)
    }

    /// Second half: grants the vote when the candidate's log is
    /// `up_to_date` by the engine's comparison and this term's vote is
    /// still free (or already theirs) — persisted, and the election timer
    /// re-armed. Returns whether it was granted.
    pub fn grant_vote<M>(
        &mut self,
        candidate: NodeId,
        up_to_date: bool,
        out: &mut Actions<M>,
    ) -> bool {
        let can_vote = self.voted_for.is_none() || self.voted_for == Some(candidate);
        let granted = up_to_date && can_vote;
        if granted {
            self.voted_for = Some(candidate);
            self.persist_term_vote(out);
            self.reset_election_timer(out);
        }
        granted
    }

    /// Tallies a `RequestVoteReply`.
    pub fn on_vote_reply(&mut self, from: NodeId, term: Term, granted: bool) -> Reply {
        if term > self.current_term {
            return Reply::NewerTerm;
        }
        if self.role != Role::Candidate || term < self.current_term || !granted {
            return Reply::Dropped;
        }
        self.votes.insert(from);
        Reply::Counted
    }

    /// `true` once a candidate holds a classic quorum of votes from sites
    /// still in its configuration.
    pub fn won_election(&self) -> bool {
        let valid_votes = self
            .votes
            .iter()
            .filter(|v| self.config.contains(**v))
            .count();
        self.role == Role::Candidate && valid_votes >= self.config.classic_quorum()
    }

    /// Takes office: role, hint, the lease behind its new-leader barrier,
    /// and every member's replication cursor reset to `start`. The engine
    /// seeds its own log (term no-op or vote recovery), then calls
    /// [`Replica::start_heartbeats`].
    pub fn become_leader<M>(&mut self, start: LogIndex, out: &mut Actions<M>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        out.observe(Observation::BecameLeader {
            term: self.current_term,
        });
        self.reads.arm_lease();
        self.next_index.clear();
        self.match_index.clear();
        for peer in self.config.iter() {
            self.next_index.insert(peer, start);
            self.match_index.insert(peer, LogIndex::ZERO);
        }
    }

    /// Ends the election and begins the reign: the first heartbeat leaves
    /// now, steady-state dispatch stays heartbeat-gated.
    pub fn start_heartbeats<M: ClientReplyMessage>(
        &mut self,
        upper: LogIndex,
        out: &mut Actions<M>,
    ) {
        out.cancel_timer(self.election_timer);
        self.heartbeat(upper, out);
    }

    /// The leader's periodic step: one AppendEntries round carrying entries
    /// through `upper`, and the heartbeat timer re-armed.
    pub fn heartbeat<M: ClientReplyMessage>(&mut self, upper: LogIndex, out: &mut Actions<M>) {
        self.dispatch_append_entries(upper, out);
        out.set_timer(self.heartbeat_timer, self.timing.heartbeat);
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// The highest index an insert may address: the dense log materializes
    /// the addressed span as slots, so an absurd index from a corrupt peer
    /// must be dropped, not allocated.
    pub fn insert_bound(&self) -> u64 {
        self.log.last_index().max(self.commit_index).as_u64() + MAX_INSERT_WINDOW
    }

    /// Writes `entry` into slot `index` (write-ahead persisted), replacing
    /// any occupant and re-pointing the id map: a loser's mapping would
    /// make its retries look in flight. A leader-approved configuration entry at or above the one
    /// obeyed so far is obeyed from here on — "each site considers the last
    /// appended configuration entry to be its current configuration"
    /// (§III-A); a merely proposed (self-approved) one is not.
    pub fn insert_entry<M>(&mut self, index: LogIndex, entry: LogEntry, out: &mut Actions<M>) {
        if let Some(old) = self.log.get(index) {
            if old.id != entry.id {
                self.id_index.remove(&old.id);
            }
        }
        self.id_index.insert(entry.id, index);
        if let (Some(cfg), Approval::LeaderApproved) = (entry.as_config(), entry.approval) {
            if index >= self.config_index {
                self.config = cfg.clone();
                self.config_index = index;
            }
        }
        out.persist(PersistCmd::Insert {
            scope: self.scope,
            index,
            entry: entry.clone(),
        });
        self.log.insert(index, entry);
    }

    /// One AppendEntries round, carrying entries through `upper`. Followers
    /// (voters, then learners) are grouped by `nextIndex`: one budgeted
    /// batch is assembled per distinct resume point and the Rc-shared
    /// [`EntryList`] handle is cloned per recipient, so the fan-out shares
    /// a single allocation. A follower whose resume point fell below the
    /// first retained index cannot be served from the log anymore: it gets
    /// the compacted prefix as a snapshot instead (its ack moves
    /// `nextIndex` above the horizon and replication resumes normally).
    pub fn dispatch_append_entries<M: ClientReplyMessage>(
        &mut self,
        upper: LogIndex,
        out: &mut Actions<M>,
    ) {
        let budget = self.timing.append_budget();
        let default_next = self.commit_index.next();
        let mut groups = std::mem::take(&mut self.append_scratch);
        groups.clear();
        let followers = self
            .config
            .peers(self.id)
            .chain(self.learners.iter().copied().filter(|l| *l != self.id));
        for follower in followers {
            let next = self.next_index.get(&follower).copied();
            let next = next.unwrap_or(default_next);
            // After every pair with an equal or lower resume point: stable.
            let at = groups.partition_point(|&(n, _)| n <= next);
            groups.insert(at, (next, follower));
        }
        for peers in groups.chunk_by(|a, b| a.0 == b.0) {
            let next = peers[0].0;
            if next < self.log.first_index() {
                if let Some(snapshot) = self.current_snapshot() {
                    for &(_, peer) in peers {
                        let snapshot = snapshot.clone();
                        out.send(
                            peer,
                            M::install_snapshot(self.current_term, self.id, snapshot),
                        );
                    }
                }
                continue;
            }
            let prev_index = next.prev_saturating();
            let prev_term = self.log.term_at(prev_index);
            let entries = if upper >= next {
                self.log.collect_range_budgeted(next, upper, budget)
            } else {
                EntryList::empty()
            };
            debug_assert!(entries
                .iter()
                .all(|(_, e)| e.approval == Approval::LeaderApproved));
            for &(_, peer) in peers {
                out.send(
                    peer,
                    M::append_entries(
                        self.current_term,
                        self.id,
                        prev_index,
                        prev_term,
                        entries.clone(),
                        self.commit_index,
                        self.reads.probe(),
                    ),
                );
            }
        }
        self.append_scratch = groups;
    }

    /// Leader bookkeeping for a replication ack — an `AppendEntriesReply`
    /// that `matched` the follower's log through an index (`None`: it
    /// rejected the append), or an `InstallSnapshotReply`, which is an ack
    /// of the snapshot's prefix carrying no lease grant
    /// ([`SimTime::ZERO`]). The grant counts whether or not the append
    /// matched — the promise is about voting, not log state. `match_index`
    /// is monotone (acked entries are persisted at the follower), but
    /// `next_index` follows the ack exactly: a follower that restarted from
    /// stable storage reports a low match, and the leader must rewind and
    /// resend that range. After [`Reply::Counted`] the engine advances its
    /// commit index; after [`Reply::Rejected`] it picks the rewind point.
    pub fn on_ack<M>(
        &mut self,
        from: NodeId,
        term: Term,
        matched: Option<LogIndex>,
        lease_until: SimTime,
        out: &mut Actions<M>,
    ) -> Reply {
        if term > self.current_term {
            return Reply::NewerTerm;
        }
        if self.role != Role::Leader || term < self.current_term {
            return Reply::Dropped;
        }
        self.reads.record_grant(from, lease_until, out);
        let Some(matched) = matched else {
            return Reply::Rejected;
        };
        let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
        if matched > *m {
            *m = matched;
        }
        self.next_index.insert(from, matched.next());
        Reply::Counted
    }

    /// The classic commit rule: the highest `k` in `(commit_index, upper]`
    /// whose entry is of the current term and replicated (`match_index ≥ k`)
    /// on a classic quorum of the configuration; `commit_index` when there
    /// is none. Earlier-term entries commit only beneath such a `k`.
    pub fn quorum_commit_point(&self, upper: LogIndex) -> LogIndex {
        let quorum = self.config.classic_quorum();
        let mut k = upper;
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
        k
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// The snapshot to serve laggards (see [`Applied::current_snapshot`]).
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        self.applied
            .current_snapshot(&self.log, &self.config, self.config_index)
    }

    /// Compacts the applied prefix into a snapshot once it outgrows
    /// [`Timing::snapshot_threshold`] (see [`Applied::maybe_compact`]).
    /// The id map forgets the compacted prefix with the log.
    pub fn maybe_compact<M>(&mut self, out: &mut Actions<M>) {
        if let Some(through) = self.applied.compaction_point(&self.log) {
            self.id_index.retain(|_, k| *k > through);
        }
        self.applied
            .maybe_compact(&mut self.log, &self.config, self.config_index, out);
    }

    /// Replaces the compacted prefix wholesale with `snapshot` and resumes
    /// above it: persisted, installed into the log, the applied image and
    /// commit index fast-forwarded, the configuration adopted unless a
    /// surviving entry supersedes it. The engine has already followed the
    /// sender if its `term` is current. Returns `false` — having told
    /// `from` why, persisting nothing — for a deposed leader's transfer, and
    /// for a stale one (everything it covers is already committed here, so
    /// the ack carries this site's actual coverage and the leader resumes
    /// higher). After `true` the engine answers the gateway writes the
    /// install jumped past, releases reads, and acks.
    pub fn install_snapshot<M: ClientReplyMessage>(
        &mut self,
        from: NodeId,
        term: Term,
        snapshot: Snapshot,
        out: &mut Actions<M>,
    ) -> bool {
        let last_index = snapshot.last_index;
        if term < self.current_term || last_index <= self.commit_index {
            let covered = if term < self.current_term {
                LogIndex::ZERO
            } else {
                self.commit_index
            };
            out.send(from, M::install_snapshot_reply(self.current_term, covered));
            return false;
        }
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        self.log.install_snapshot(last_index, snapshot.last_term);
        // The id map drops what the log dropped: every slot at or below the
        // new horizon, and any above it whose entry did not survive.
        let log = &self.log;
        let horizon = log.compacted_through();
        self.id_index
            .retain(|_, k| *k > horizon && log.get(*k).is_some());
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
            scope: self.scope,
            last_index,
        });
        true
    }

    // ------------------------------------------------------------------
    // The reply path
    // ------------------------------------------------------------------

    /// Answers a client request: as an observation when the gateway `to`
    /// is this node, as a `ClientReply` message otherwise. A local answer
    /// ends the request here; when it was a write, its proposal id is
    /// returned so the engine can drop it from its own retry table.
    pub fn respond_client<M: ClientReplyMessage>(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) -> Option<EntryId> {
        let mut answered = None;
        if to == self.id {
            answered = self.client_writes.remove(&(session, seq));
            self.reads.forget_local(session, seq);
        }
        reply(self.id, to, session, seq, outcome, out);
        answered
    }

    /// `true` when the applied session table provably covers every write
    /// the cluster has ever committed: this node is the leader and an entry
    /// of its own term has committed (the shared
    /// [`wire::session_state_current`] condition). Only then is a
    /// door-level [`Applied::is_expired_retry`] verdict exact; on any other
    /// node (or a fresh leader before its first own-term commit) the table
    /// may simply lag and "expired" can be a false positive for a perfectly
    /// live session.
    pub fn applied_session_state_current(&self) -> bool {
        self.role == Role::Leader
            && session_state_current(&self.log, self.commit_index, self.current_term)
    }

    /// Gateway side of a relayed `outcome`: adopts a redirect's leader
    /// hint, and returns `true` when the redirect is for a write still in
    /// flight here. Such a write stays pending — the engine's retry timer
    /// resubmits it against the updated hint; re-routing synchronously
    /// would ping-pong at network RTT against a deposed leader that still
    /// hints itself. A redirected read surfaces to the caller instead.
    pub fn absorbs_redirect(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: &ClientOutcome,
    ) -> bool {
        let ClientOutcome::Redirect { leader_hint } = outcome else {
            return false;
        };
        if let Some(hint) = leader_hint {
            self.leader_hint = Some(*hint);
        }
        self.client_writes.contains_key(&(session, seq))
    }

    /// Gateway door for a read. A stale one is served from this site's
    /// commit floor at once, no coordination (a single log's local floor
    /// *is* the global floor at its scope). A linearizable one is noted as
    /// in flight and, off the leader, forwarded to the hinted leader — or
    /// answered `Retry` when none is known (an election is likely in
    /// progress). Returns `true` at the leader, whose engine then admits
    /// the read itself.
    pub fn client_read<M: ClientReplyMessage>(
        &mut self,
        session: SessionId,
        seq: u64,
        consistency: Consistency,
        out: &mut Actions<M>,
    ) -> bool {
        match consistency {
            Consistency::StaleLocal | Consistency::StaleGlobal => {
                let outcome = ClientOutcome::ReadOk {
                    scope: self.scope,
                    commit_floor: self.commit_index,
                };
                out.observe(Observation::ClientResponse {
                    session,
                    seq,
                    outcome,
                });
            }
            Consistency::Linearizable if self.role == Role::Leader => {
                self.reads.track_local(session, seq);
                return true;
            }
            Consistency::Linearizable => match self.leader_hint {
                Some(leader) => {
                    self.reads.track_local(session, seq);
                    out.send(leader, M::client_read(session, seq));
                }
                None => out.observe(Observation::ClientResponse {
                    session,
                    seq,
                    outcome: ClientOutcome::Retry,
                }),
            },
        }
        false
    }

    /// A gateway's forwarded linearizable read: `true` at the leader (the
    /// engine admits it); anyone else redirects the gateway — by message
    /// even when that gateway is this node (a deposed leader still hinting
    /// itself), so the redirect is handled like any other.
    pub fn on_client_read<M: ClientReplyMessage>(
        &self,
        from: NodeId,
        session: SessionId,
        seq: u64,
        out: &mut Actions<M>,
    ) -> bool {
        let leader_hint = self.leader_hint;
        if self.role != Role::Leader {
            let outcome = ClientOutcome::Redirect { leader_hint };
            out.send(from, M::client_reply(session, seq, outcome));
        }
        self.role == Role::Leader
    }

    /// Leader side of a linearizable read whose commit floor is servable:
    /// answered from the lease when it is live, otherwise parked until a
    /// heartbeat round confirms leadership. Returns `true` when the engine
    /// should dispatch that round now rather than waiting out the period.
    pub fn register_read<M: ClientReplyMessage>(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        out: &mut Actions<M>,
    ) -> bool {
        self.reads
            .register_read(session, seq, reply_to, self.commit_index, &self.config, out)
    }
}
