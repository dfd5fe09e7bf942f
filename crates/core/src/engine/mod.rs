//! The Fast Raft engine (§IV), reusable at both C-Raft levels.
//!
//! One engine instance runs one consensus level over one log. Plain Fast
//! Raft wraps a single ungated engine; C-Raft runs a `Local`-scope engine
//! inside each cluster and a `Global`-scope engine among cluster leaders,
//! built [`gated`](FastRaftEngine::gated), whose inserts wait until a
//! *global state entry* commits locally (§V-B; see the `gate` module).
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
use storage::ScopeState;
use wire::{
    Actions, Approval, ClientOp, ClientOutcome, ClientRequest, Configuration, EntryId, EntryList,
    LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, SessionId, SessionTable, Snapshot,
    Term, TimerKind,
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

/// Which set of timer kinds an engine arms — base names for single-level
/// protocols and C-Raft's local level, `Global*` for C-Raft's global level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerProfile {
    /// Election / Heartbeat / LeaderTick / ProposalRetry / JoinRetry.
    Base,
    /// GlobalElection / GlobalHeartbeat / ... (§V inter-cluster level).
    Global,
}

impl TimerProfile {
    /// Maps a base timer kind to this profile's concrete kind.
    pub fn map(self, base: TimerKind) -> TimerKind {
        match self {
            TimerProfile::Base => base,
            TimerProfile::Global => match base {
                TimerKind::Election => TimerKind::GlobalElection,
                TimerKind::Heartbeat => TimerKind::GlobalHeartbeat,
                TimerKind::LeaderTick => TimerKind::GlobalLeaderTick,
                TimerKind::ProposalRetry => TimerKind::GlobalProposalRetry,
                TimerKind::JoinRetry => TimerKind::GlobalJoinRetry,
                other => other,
            },
        }
    }

    /// Maps a concrete timer kind back to the base kind, if it belongs to
    /// this profile.
    pub fn unmap(self, kind: TimerKind) -> Option<TimerKind> {
        match self {
            TimerProfile::Base => match kind {
                TimerKind::Election
                | TimerKind::Heartbeat
                | TimerKind::LeaderTick
                | TimerKind::ProposalRetry
                | TimerKind::JoinRetry => Some(kind),
                _ => None,
            },
            TimerProfile::Global => match kind {
                TimerKind::GlobalElection => Some(TimerKind::Election),
                TimerKind::GlobalHeartbeat => Some(TimerKind::Heartbeat),
                TimerKind::GlobalLeaderTick => Some(TimerKind::LeaderTick),
                TimerKind::GlobalProposalRetry => Some(TimerKind::ProposalRetry),
                TimerKind::GlobalJoinRetry => Some(TimerKind::JoinRetry),
                _ => None,
            },
        }
    }
}

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

/// One consensus level of Fast Raft: a sans-IO state machine.
#[derive(Debug)]
pub struct FastRaftEngine {
    /// Everything a Raft-family engine carries: term, vote, log, applied
    /// image, role, configuration, replication cursors, read path.
    core: Replica,
    timers: TimerProfile,

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

impl FastRaftEngine {
    /// Creates a member node with a bootstrap configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is empty or omits `id`, or on invalid timing.
    pub fn new(
        id: NodeId,
        bootstrap: Configuration,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        timing.validate();
        assert!(!bootstrap.is_empty(), "bootstrap configuration is empty");
        assert!(bootstrap.contains(id), "node {id} not in bootstrap");
        Self::construct(id, bootstrap, None, scope, timers, timing, rng)
    }

    /// Creates a node that is **not yet a member**: it will send join
    /// requests to `contacts` until accepted (§IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `contacts` is empty or on invalid timing.
    pub fn joining(
        id: NodeId,
        contacts: Vec<NodeId>,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        timing.validate();
        assert!(!contacts.is_empty(), "joining node needs contact sites");
        Self::construct(
            id,
            Configuration::empty(),
            Some(contacts),
            scope,
            timers,
            timing,
            rng,
        )
    }

    fn construct(
        id: NodeId,
        config: Configuration,
        join_contacts: Option<Vec<NodeId>>,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        let replica_timers = (
            timers.map(TimerKind::Election),
            timers.map(TimerKind::Heartbeat),
        );
        FastRaftEngine {
            core: Replica::new(id, scope, config, replica_timers, timing, rng),
            timers,
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

    /// Rebuilds an engine from persisted state after a crash: snapshot (if
    /// any) + retained log suffix. The commit index resumes at the
    /// compaction horizon — everything the snapshot covers is known
    /// committed and already applied. The configuration is taken from the
    /// log's latest config entry, falling back to the snapshot's, then
    /// `bootstrap`.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        id: NodeId,
        term: Term,
        voted_for: Option<NodeId>,
        log: wire::SparseLog,
        snapshot: Option<Snapshot>,
        bootstrap: Configuration,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
        proposal_seq_floor: u64,
    ) -> Self {
        let mut e = Self::construct(id, bootstrap, None, scope, timers, timing, rng);
        e.core.restore(ScopeState {
            current_term: term,
            voted_for,
            log,
            snapshot,
            proposal_seq_floor,
        });
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

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// Stamps this engine's view of "now" (an input like any message; see
    /// [`wire::ConsensusProtocol::set_local_clock`]). Never stamping it
    /// leaves the engine clockless and every lease path inert.
    pub fn set_local_clock(&mut self, now: SimTime) {
        self.core.reads.set_local_clock(now);
    }

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

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Arms initial timers; joiners start their join handshake instead.
    pub fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.is_some() {
            self.send_join_request(out);
        } else {
            self.core.reset_election_timer(out);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handles a timer expressed in **base** kinds (the embedding unmaps
    /// profile-specific kinds first; [`TimerProfile::unmap`]).
    pub fn on_timer(&mut self, base: TimerKind, out: &mut Actions<FastRaftMessage>) {
        match base {
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
                out.set_timer(
                    self.timers.map(TimerKind::LeaderTick),
                    self.core.timing.decision_tick,
                );
            }
            TimerKind::ProposalRetry => self.retry_proposals(out),
            TimerKind::JoinRetry if self.join_contacts.is_some() => {
                self.send_join_request(out);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handles one incoming message.
    pub fn on_message(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_profile_roundtrip() {
        for base in [
            TimerKind::Election,
            TimerKind::Heartbeat,
            TimerKind::LeaderTick,
            TimerKind::ProposalRetry,
            TimerKind::JoinRetry,
        ] {
            let g = TimerProfile::Global.map(base);
            assert_ne!(g, base, "global profile must rename {base:?}");
            assert_eq!(TimerProfile::Global.unmap(g), Some(base));
            assert_eq!(TimerProfile::Base.map(base), base);
            assert_eq!(TimerProfile::Base.unmap(base), Some(base));
        }
        assert_eq!(TimerProfile::Base.unmap(TimerKind::GlobalElection), None);
        assert_eq!(TimerProfile::Global.unmap(TimerKind::Election), None);
    }

    #[test]
    fn construction_validations() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let e = FastRaftEngine::new(
            NodeId(0),
            cfg,
            LogScope::Global,
            TimerProfile::Base,
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
        assert_eq!(e.role(), Role::Follower);
        assert!(!e.is_joining());
        assert_eq!(e.commit_index(), LogIndex::ZERO);
    }

    #[test]
    #[should_panic(expected = "not in bootstrap")]
    fn new_requires_membership() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        FastRaftEngine::new(
            NodeId(9),
            cfg,
            LogScope::Global,
            TimerProfile::Base,
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
    }

    #[test]
    fn joining_node_has_no_config() {
        let e = FastRaftEngine::joining(
            NodeId(9),
            vec![NodeId(0), NodeId(1)],
            LogScope::Global,
            TimerProfile::Base,
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
        let mut e = FastRaftEngine::new(
            NodeId(0),
            [NodeId(0)].into_iter().collect(),
            LogScope::Global,
            TimerProfile::Base,
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
