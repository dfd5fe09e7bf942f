//! The Fast Raft engine (§IV), reusable at both C-Raft levels.
//!
//! One [`FastRaftNode`] runs one consensus level over one log. Plain Fast
//! Raft is a single ungated node; C-Raft runs a `Local`-scope node inside
//! each cluster and a `Global`-scope node among cluster leaders, built
//! [`gated`](FastRaftNode::gated), whose inserts wait until a *global state
//! entry* commits locally (§V-B; see the `gate` module). Every node arms the
//! base timer kinds; C-Raft renames its global node's timers where it
//! forwards that node's effects.
//!
//! ## Protocol summary
//!
//! - **Fast track** (§IV-B): proposers broadcast `ProposeAt{index, entry}`
//!   to all members; each site inserts the entry *self-approved* (if the
//!   slot is free) and sends its `Vote` (its `log[index]` plus its commit
//!   index) to the leader. The leader's periodic decision loop processes
//!   index `commitIndex+1` once a classic quorum of votes arrived: it
//!   inserts the most-voted entry leader-approved, and commits immediately
//!   when a fast quorum (⌈3M/4⌉) voted for that same entry.
//! - **Classic track**: when the fast quorum is missed, the inserted entry
//!   replicates via `AppendEntries` (heartbeat-gated) and commits by the
//!   usual matchIndex rule — one extra message round.
//! - **Election** (§IV-C): up-to-dateness counts **leader-approved** entries
//!   only; voters attach all their self-approved entries to granted votes,
//!   and the new leader replays them into `possibleEntries` (the recovery
//!   algorithm), guaranteeing any possibly-chosen entry is re-chosen.
//! - **Membership** (§IV-D): sites announce joins/leaves themselves; the
//!   leader serializes changes one at a time, catches joiners up as
//!   non-voting learners, and detects **silent leaves** via a member
//!   timeout of missed AppendEntries responses.
//!
//! ## Liveness guard (hole filling)
//!
//! If the index right above `commitIndex` never gathers a classic quorum of
//! votes (e.g. the proposer vanished after a partial broadcast), the leader
//! re-proposes a no-op **through the normal proposer path** after
//! `hole_fill_ticks` stalled decision ticks. Sites already holding an entry
//! at the index keep it and re-vote for it, so the decision rule still picks
//! any possibly-chosen entry — safety is untouched while the log unblocks.
//! This guard is implied but not spelled out by the paper; see
//! `docs/DEVIATIONS.md`, row 1.

use std::collections::{BTreeMap, VecDeque};

use des::{IdMap, SimRng, SimTime};
use raft::replica::{Door, Replica, Reply};
use raft::{Role, Timing};
use storage::{ScopeState, StableState};
use wire::{
    Actions, Approval, ClientOp, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol,
    EntryId, EntryList, LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, SessionId,
    SessionTable, Snapshot, Term, TimerKind,
};

use crate::gate::{GateRecorder, GateRequest, GateToken};
use crate::message::FastRaftMessage;
use crate::possible::PossibleEntries;

mod client;
mod commit;
mod decide;
mod election;
mod membership;
mod propose;
mod replicate;
mod snapshot;

/// How proposals reach the log (§IV-B vs the contention note in §IV-F).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProposalMode {
    /// The paper's fast track: broadcast to every member, who insert
    /// self-approved and vote. Two message rounds without contention.
    #[default]
    Broadcast,
    /// Forward to the leader, which assigns the next index and replicates
    /// on the classic track. One extra round, but contention-free —
    /// C-Raft's global level uses this so concurrent per-cluster batches
    /// do not collide (see `docs/DEVIATIONS.md`, row 2).
    LeaderForward,
}

/// A queued membership change awaiting its turn (one at a time, §IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReconfigOp {
    Add(NodeId),
    Remove(NodeId),
}

/// A proposal issued at this site, tracked until committed.
#[derive(Clone, Debug)]
struct PendingProposal {
    payload: Payload,
    /// The log index last targeted for this proposal.
    index: LogIndex,
}

/// Continuation parked while an insert is gated (see the `gate` module).
#[derive(Clone, Debug)]
enum GateCont {
    /// Finish a proposer-broadcast insert (self-approved), then vote.
    Proposer { index: LogIndex, entry: LogEntry },
    /// Release the leader insert reserved at this index, if it still is.
    Leader(LogIndex),
    /// One slot of the deferred AppendEntries batch with this ack id.
    Append(u64),
}

/// A gated leader-approved insert, reserved at its index until it lands.
/// A reservation lives only while its leader leads in its term.
#[derive(Clone, Debug)]
struct Reserved {
    token: GateToken,
    entry: LogEntry,
    /// Chosen by the decision loop (else appended above the log).
    decision: bool,
    /// Its gate released; it lands once every lower reservation has.
    released: bool,
}

/// Accumulated acknowledgement for one gated AppendEntries message.
#[derive(Clone, Debug)]
struct AckState {
    from: NodeId,
    /// Term the batch was verified under; it neither lands nor acks if
    /// the term changed.
    term: Term,
    match_index: LogIndex,
    leader_commit: LogIndex,
    /// ReadIndex probe of the original message, echoed in the eventual ack.
    probe: u64,
    remaining: usize,
}

/// A Fast Raft site (§IV): one consensus level over one log, as a sans-IO
/// state machine.
///
/// # Examples
///
/// ```
/// use consensus_core::FastRaftNode;
/// use des::SimRng;
/// use raft::{Role, Timing};
/// use raft::testkit::Lockstep;
/// use wire::{Configuration, NodeId, TimerKind};
///
/// let cfg: Configuration = (0..5).map(NodeId).collect();
/// let nodes = (0..5).map(|i| {
///     FastRaftNode::new(NodeId(i), cfg.clone(), Timing::lan(), SimRng::seed_from_u64(i))
/// });
/// let mut net = Lockstep::new(nodes);
/// net.fire(NodeId(0), TimerKind::Election);
/// net.deliver_all();
/// assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
/// ```
#[derive(Debug)]
pub struct FastRaftNode {
    /// Everything a Raft-family engine carries: term, vote, log, applied
    /// image, role, configuration, replication cursors, read path.
    core: Replica,

    /// Self-approved entries shipped by granters during the election.
    recovery_votes: Vec<(NodeId, Vec<(LogIndex, LogEntry)>)>,
    /// Highest index verified to match the current leader (follower side).
    verified: LogIndex,

    // ---- leader volatile ----
    possible: PossibleEntries,
    last_leader_index: LogIndex,
    missed_beats: BTreeMap<NodeId, u32>,
    /// Where this leader put its configuration entry, until it commits.
    pending_config: Option<LogIndex>,
    /// The site awaiting a JoinReply once `pending_config` commits.
    pending_join_notify: Option<NodeId>,
    reconfig_queue: VecDeque<ReconfigOp>,
    stalled_ticks: u32,

    // ---- proposer ----
    pending_proposals: BTreeMap<EntryId, PendingProposal>,

    // ---- joiner ----
    /// Contact sites while not yet a configuration member.
    join_contacts: Option<Vec<NodeId>>,
    /// Consecutive elections that drew no response at all — the signature
    /// of having been silently evicted while away (§IV-D: such a site
    /// "will need to send a join request to return to the configuration").
    silent_elections: u32,

    // ---- bookkeeping ----
    proposal_mode: ProposalMode,
    /// Next index handed to a leader-forwarded proposal (grows past
    /// gate-pending assignments).
    assign_cursor: LogIndex,
    /// The one insert door (see the `gate` module).
    gate: GateRecorder,
    pending_gates: IdMap<GateToken, GateCont>,
    /// Gated leader inserts by index; they land in index order.
    reserved: BTreeMap<LogIndex, Reserved>,
    acks: IdMap<u64, AckState>,
    next_ack_id: u64,
    /// Deferred AppendEntries slots, `(ack id, index, entry)`, in arrival
    /// order; a batch lands whole when its last gate releases.
    parked_appends: Vec<(u64, LogIndex, LogEntry)>,

    // ---- scratch (empty between steps, capacity retained) ----
    /// Pending proposals being re-sent by one retry or re-target pass.
    proposal_scratch: Vec<(EntryId, Payload, LogIndex)>,
}

impl FastRaftNode {
    /// Creates a member node of the global log with a bootstrap
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` omits `id`, or on invalid timing.
    pub fn new(id: NodeId, bootstrap: Configuration, timing: Timing, rng: SimRng) -> Self {
        assert!(bootstrap.contains(id), "node {id} not in bootstrap");
        Self::scoped(
            id,
            LogScope::Global,
            ScopeState::default(),
            bootstrap,
            timing,
            rng,
        )
    }

    /// Creates a node that is **not yet a member**: it sends join requests
    /// to `contacts` until accepted, catches up as a non-voting member, then
    /// enters the configuration (§IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `contacts` is empty or on invalid timing.
    pub fn joining(id: NodeId, contacts: Vec<NodeId>, timing: Timing, rng: SimRng) -> Self {
        timing.validate();
        assert!(!contacts.is_empty(), "joining node needs contact sites");
        Self::construct(
            id,
            Configuration::empty(),
            Some(contacts),
            LogScope::Global,
            timing,
            rng,
        )
    }

    /// Rebuilds a node of the global log from stable storage after a
    /// crash: snapshot (if any) plus the retained log suffix.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        Self::scoped(
            id,
            LogScope::Global,
            stable.global.clone(),
            bootstrap,
            timing,
            rng,
        )
    }

    /// Builds a node at `scope` from its persisted `state` (the default
    /// state for a fresh node). The commit index resumes at the compaction
    /// horizon: everything the snapshot covers is known committed and
    /// already applied. The configuration is taken from the log's latest
    /// config entry, falling back to the snapshot's, then `bootstrap`; a
    /// site that configuration omits must rejoin.
    ///
    /// # Panics
    ///
    /// Panics on invalid timing.
    pub fn scoped(
        id: NodeId,
        scope: LogScope,
        state: ScopeState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        timing.validate();
        let mut e = Self::construct(id, bootstrap, None, scope, timing, rng);
        e.core.restore(state);
        e.verified = e.core.commit_index;
        e.last_leader_index = e
            .core
            .log
            .last_leader_index()
            .max(e.core.log.compacted_through());
        if !e.core.config.contains(id) && !e.core.config.is_empty() {
            // Removed while down: must rejoin explicitly.
            e.join_contacts = Some(e.core.config.to_vec());
        }
        e
    }

    fn construct(
        id: NodeId,
        config: Configuration,
        join_contacts: Option<Vec<NodeId>>,
        scope: LogScope,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        FastRaftNode {
            core: Replica::new(id, scope, config, timing, rng),
            recovery_votes: Vec::new(),
            verified: LogIndex::ZERO,
            possible: PossibleEntries::new(),
            last_leader_index: LogIndex::ZERO,
            missed_beats: BTreeMap::new(),
            pending_config: None,
            pending_join_notify: None,
            reconfig_queue: VecDeque::new(),
            stalled_ticks: 0,
            pending_proposals: BTreeMap::new(),
            join_contacts,
            silent_elections: 0,
            proposal_mode: ProposalMode::default(),
            assign_cursor: LogIndex::ZERO,
            gate: GateRecorder::new(false),
            pending_gates: IdMap::default(),
            reserved: BTreeMap::new(),
            acks: IdMap::default(),
            next_ack_id: 0,
            parked_appends: Vec::new(),
            proposal_scratch: Vec::new(),
        }
    }

    /// Puts every log insert of this engine behind the insert gate (C-Raft's
    /// global level): an insert waits until the embedding, having drained
    /// its [`GateRequest`], calls [`gate_ready`](Self::gate_ready).
    pub fn gated(mut self) -> Self {
        self.gate = GateRecorder::new(true);
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current role at this level.
    pub fn role(&self) -> Role {
        self.core.role
    }

    /// `true` while this node leads its configuration.
    pub fn is_leader(&self) -> bool {
        self.core.role == Role::Leader
    }

    /// Current term at this level.
    pub fn current_term(&self) -> Term {
        self.core.current_term
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.core.commit_index
    }

    /// The log at this level.
    pub fn log(&self) -> &wire::SparseLog {
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

    /// The configuration currently obeyed.
    pub fn config(&self) -> &Configuration {
        &self.core.config
    }

    /// The believed leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.leader_hint
    }

    /// Highest leader-approved index (§IV-A `lastLeaderIndex`).
    pub fn last_leader_index(&self) -> LogIndex {
        self.last_leader_index
    }

    /// Proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.pending_proposals.len()
    }

    /// Inserts currently parked behind the gate: continuations awaiting a
    /// `gate_ready` call. Zero for ungated (plain Fast Raft) engines.
    /// Liveness oracles assert this drains to zero at quiescence.
    pub fn pending_gate_count(&self) -> usize {
        self.pending_gates.len()
    }

    /// Indices holding an outstanding leader-insert reservation. Each
    /// reservation blocks `leader_log_settled()` (and with it reconfig,
    /// term no-ops, read nudges, and forwarded-proposal acceptance) until
    /// it lands or drops — so a reservation that outlives every pending
    /// gate is a permanent liveness wedge, and oracles assert
    /// `gated_decision_count() == 0` whenever `pending_gate_count() == 0`.
    pub fn gated_decision_count(&self) -> usize {
        self.reserved.len()
    }

    /// Drains the inserts deferred since the last call, in recording
    /// order; always empty on an ungated engine.
    pub fn drain_gate_requests(&mut self) -> std::vec::Drain<'_, GateRequest> {
        self.gate.drain()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        self.core.applied.sessions()
    }

    /// Where each proposal id placed above the compaction horizon sits in
    /// the log (gated slot reservations included).
    pub fn id_index(&self) -> &IdMap<EntryId, LogIndex> {
        &self.core.id_index
    }

    /// `true` while this node is still negotiating membership.
    pub fn is_joining(&self) -> bool {
        self.join_contacts.is_some()
    }

    /// The consensus scope this engine operates on.
    pub fn scope(&self) -> LogScope {
        self.core.scope
    }

    /// Selects how proposals reach the log (default:
    /// [`ProposalMode::Broadcast`], the paper's fast track).
    pub fn set_proposal_mode(&mut self, mode: ProposalMode) {
        self.proposal_mode = mode;
    }

    /// The current proposal mode.
    pub fn proposal_mode(&self) -> ProposalMode {
        self.proposal_mode
    }

    /// Completes a previously deferred insert (C-Raft: the global state
    /// entry committed locally).
    pub fn gate_ready(&mut self, token: GateToken, out: &mut Actions<FastRaftMessage>) {
        let Some(cont) = self.pending_gates.remove(&token) else {
            return;
        };
        match cont {
            GateCont::Proposer { index, entry } => {
                self.finish_proposer_insert(index, entry, out);
            }
            GateCont::Leader(index) => {
                if let Some(r) = self.reserved.get_mut(&index).filter(|r| r.token == token) {
                    r.released = true;
                }
                if self.land_reserved(out) {
                    // A decision fast-committed: the loop may continue.
                    self.run_decision_loop(out);
                }
            }
            GateCont::Append(ack) => {
                let st = self.acks.get_mut(&ack).expect("ack state");
                st.remaining -= 1;
                if st.remaining == 0 {
                    let st = self.acks.remove(&ack).expect("ack state");
                    self.land_append(ack, st, out);
                }
            }
        }
    }
}

impl ConsensusProtocol for FastRaftNode {
    type Message = FastRaftMessage;

    fn id(&self) -> NodeId {
        self.core.id
    }

    /// Stamps this node's view of "now". Never stamping it leaves the node
    /// clockless and every lease path inert.
    fn set_local_clock(&mut self, now: SimTime) {
        self.core.reads.set_local_clock(now);
    }

    /// Arms initial timers; joiners start their join handshake instead.
    fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.is_some() {
            self.send_join_request(out);
        } else {
            self.core.reset_election_timer(out);
        }
    }

    /// Handles a base timer kind; any other kind is ignored.
    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<FastRaftMessage>) {
        match kind {
            TimerKind::Election
                if self.core.role != Role::Leader && self.join_contacts.is_none() =>
            {
                self.start_election(out);
            }
            TimerKind::Heartbeat if self.core.role == Role::Leader => {
                self.note_missed_beats(out);
                self.core.heartbeat(self.leader_coverage(), out);
            }
            TimerKind::LeaderTick if self.core.role == Role::Leader => {
                self.run_decision_loop(out);
                self.maybe_fill_hole(out);
                self.start_next_reconfig(out);
                out.set_timer(TimerKind::LeaderTick, self.core.timing.decision_tick);
            }
            TimerKind::ProposalRetry => self.retry_proposals(out),
            TimerKind::JoinRetry if self.join_contacts.is_some() => {
                self.send_join_request(out);
            }
            _ => {}
        }
    }

    /// Handles one incoming message.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: FastRaftMessage,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Every sender is heard, member or not: membership counts only
        // where a quorum is counted (docs/DEVIATIONS.md row 10). A message
        // clears its sender's missed-beat counter.
        self.missed_beats.remove(&from);

        match msg {
            FastRaftMessage::ProposeAt { index, entry } => {
                self.on_propose_at(from, index, entry, out)
            }
            FastRaftMessage::Vote {
                index,
                entry,
                commit_index,
            } => self.on_vote(from, index, entry, commit_index, out),
            FastRaftMessage::ProposeReply {
                id,
                committed,
                index,
                leader_hint,
            } => {
                if let Some(hint) = leader_hint {
                    self.core.leader_hint = Some(hint);
                }
                if !committed {
                    self.on_lost_index(id, index, out);
                } else if self.pending_proposals.remove(&id).is_some() {
                    out.observe(Observation::ProposalCommitted {
                        id,
                        index,
                        scope: self.core.scope,
                    });
                }
            }
            FastRaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                entries,
                leader_commit,
                global_commit: _,
                probe,
            } => self.on_append_entries(
                from,
                term,
                leader,
                prev_index,
                entries,
                leader_commit,
                probe,
                out,
            ),
            FastRaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => self.on_append_reply(from, term, success, match_index, probe, lease_until, out),
            FastRaftMessage::ClientRead { session, seq } => {
                if self.core.on_client_read(from, session, seq, out) {
                    self.register_read(session, seq, from, out);
                }
            }
            FastRaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => {
                if let Some(id) = self.core.on_client_reply(session, seq, outcome, out) {
                    self.pending_proposals.remove(&id);
                }
            }
            FastRaftMessage::RequestVote {
                term,
                candidate,
                last_leader_index,
                last_leader_term,
            } => self.on_request_vote(
                from,
                term,
                candidate,
                last_leader_index,
                last_leader_term,
                out,
            ),
            FastRaftMessage::RequestVoteReply {
                term,
                granted,
                self_approved,
            } => self.on_vote_reply(from, term, granted, self_approved, out),
            FastRaftMessage::JoinRequest { node } => self.on_join_request(from, node, out),
            FastRaftMessage::JoinReply {
                accepted,
                leader_hint,
            } => {
                if let Some(hint) = leader_hint {
                    self.core.leader_hint = Some(hint);
                }
                if accepted && self.core.config.contains(self.core.id) {
                    self.finish_joining(out);
                } else if !accepted && self.join_contacts.is_some() {
                    // Redirect noted; retry goes to the hinted leader.
                }
            }
            FastRaftMessage::LeaveRequest { node } => self.on_leave_request(node, out),
            FastRaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(from, term, leader, snapshot, out),
            FastRaftMessage::InstallSnapshotReply { term, last_index } => {
                self.on_install_snapshot_reply(from, term, last_index, out)
            }
        }
    }

    /// Submits a typed client request at this node (the gateway). Writes
    /// ride the normal proposal machinery as `Payload::Write` and are
    /// answered when the gateway applies their commit; reads are answered
    /// from the commit floor (stale) or after a leader ReadIndex round
    /// (linearizable). All answers surface as
    /// [`Observation::ClientResponse`].
    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<FastRaftMessage>) {
        let ClientRequest { session, seq, op } = req;
        match op {
            // (The C-Raft layer intercepts StaleGlobal above this point and
            // answers from its global-commit floor instead.)
            ClientOp::Read(consistency) => {
                if self.core.client_read(session, seq, consistency, out) {
                    self.register_read(session, seq, self.core.id, out);
                }
            }
            // Gateway door for a session write or an explicit session
            // registration (see [`Replica::client_door`]). A committed
            // [`Payload::Register`] consumes seq 1 of the session, so a
            // later eviction can never leave a re-appliable *data* write at
            // the session's boundary (see [`ClientOp::Register`]). Unlike
            // classic Raft's leader-only door, the registration entry
            // travels the normal proposal path ([`FastRaftMessage::ProposeAt`]
            // forwards whole entries), so any gateway can register.
            op => {
                let (session, seq) = self.core.write_key(session, seq, &op);
                let verdict = match self.core.client_door(session, seq, &op, out) {
                    // In flight only while its proposal is live here: a
                    // `ProposeReply { committed }` settles the proposal
                    // before this gateway applies the commit, and a retry in
                    // that window is re-proposed under a fresh id.
                    Door::InFlight(id) if !self.pending_proposals.contains_key(&id) => {
                        self.core.expiry_door(session, seq, &op, out)
                    }
                    verdict => verdict,
                };
                match verdict {
                    Door::Answer(outcome) => {
                        self.respond_client(self.core.id, session, seq, outcome, out)
                    }
                    // The proposal-retry machinery keeps pushing it; just
                    // make sure the timer is armed.
                    Door::InFlight(_) => {
                        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout)
                    }
                    Door::Admitted(id) => {
                        let payload = match op {
                            ClientOp::Write(data) => Payload::Write { session, seq, data },
                            _ => Payload::Register { session },
                        };
                        self.propose(id, payload, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validations() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let e = FastRaftNode::new(NodeId(0), cfg, Timing::lan(), SimRng::seed_from_u64(1));
        assert_eq!(e.role(), Role::Follower);
        assert!(!e.is_joining());
        assert_eq!(e.commit_index(), LogIndex::ZERO);
    }

    #[test]
    #[should_panic(expected = "not in bootstrap")]
    fn new_requires_membership() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        FastRaftNode::new(NodeId(9), cfg, Timing::lan(), SimRng::seed_from_u64(1));
    }

    #[test]
    fn joining_node_has_no_config() {
        let e = FastRaftNode::joining(
            NodeId(9),
            vec![NodeId(0), NodeId(1)],
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
        assert!(e.is_joining());
        assert!(e.config().is_empty());
    }

    /// A one-site `LeaderForward` leader commits a forwarded proposal inside
    /// the step that proposes it. The gateway record is admitted before the
    /// proposal leaves, so that commit answers it and clears it; a record
    /// admitted afterwards would outlive its answer.
    #[test]
    fn inline_commit_answers_and_clears_the_gateway_record() {
        let mut e = FastRaftNode::new(
            NodeId(0),
            [NodeId(0)].into_iter().collect(),
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
        e.set_proposal_mode(ProposalMode::LeaderForward);
        let mut out = Actions::new();
        e.bootstrap(&mut out);
        e.on_timer(TimerKind::Election, &mut out);
        assert!(e.is_leader());
        out.clear();
        e.on_client_request(ClientRequest::register(SessionId(7)), &mut out);
        let session = match out.observations.as_slice() {
            [.., Observation::ClientResponse {
                outcome: ClientOutcome::Registered { session, .. },
                ..
            }] => *session,
            other => panic!("registration not answered inline: {other:?}"),
        };
        out.clear();
        let data = bytes::Bytes::from_static(b"w");
        e.on_client_request(ClientRequest::write(session, 2, data), &mut out);
        assert!(out.observations.iter().any(|o| matches!(
            o,
            Observation::ClientResponse {
                seq: 2,
                outcome: ClientOutcome::Committed { .. },
                ..
            }
        )));
        assert_eq!(e.core.gateway.len(), 0, "an answered write left a record");
        assert_eq!(e.pending_proposals(), 0);
    }
}
