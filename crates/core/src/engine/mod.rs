//! The Fast Raft engine (§IV), reusable at both C-Raft levels.
//!
//! One engine instance runs one consensus level over one log. Plain Fast
//! Raft wraps a single engine with the trivial [`ProceedGate`]; C-Raft runs
//! a `Local`-scope engine inside each cluster and a `Global`-scope engine
//! among cluster leaders whose inserts are deferred through a
//! [`GateRecorder`] until a *global state entry* commits locally (§V-B).
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use des::{IdMap, SimRng, SimTime};
use raft::replica::{self, Replica, Reply};
use raft::{Role, Timing};
use storage::ScopeState;
use wire::{
    Actions, Approval, ClientOp, ClientOutcome, ClientRequest, Configuration, EntryId, EntryList,
    LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, SessionId, SessionTable, Snapshot,
    Term, TimerKind,
};

use crate::gate::{GatePurpose, GateToken, GateVerdict, InsertGate};
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

/// Continuation parked while an insert is gated (C-Raft global level).
#[derive(Clone, Debug)]
enum GateCont {
    /// Finish a proposer-broadcast insert, then vote.
    ProposerVote { index: LogIndex, entry: LogEntry },
    /// Finish a decision-loop insert, then run the fast-quorum check.
    Decision { index: LogIndex, entry: LogEntry },
    /// Finish an AppendEntries insert; ack when the whole batch landed.
    Append {
        index: LogIndex,
        entry: LogEntry,
        ack: u64,
    },
    /// Finish a leader-forwarded append (ProposalMode::LeaderForward).
    LeaderAppend { index: LogIndex, entry: LogEntry },
}

/// Accumulated acknowledgement for one gated AppendEntries message.
#[derive(Clone, Debug)]
struct AckState {
    from: NodeId,
    /// Term the batch was verified under; the ack is dropped if it changed.
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
    fast_match: BTreeMap<NodeId, LogIndex>,
    last_leader_index: LogIndex,
    missed_beats: BTreeMap<NodeId, u32>,
    pending_config: Option<LogIndex>,
    /// The site awaiting a JoinReply once `pending_config` commits.
    pending_join_notify: Option<NodeId>,
    reconfig_queue: VecDeque<ReconfigOp>,
    stalled_ticks: u32,
    /// Highest index already repaired proactively (from an append ack), so
    /// one stall triggers at most one proactive no-op broadcast.
    last_proactive_repair: LogIndex,

    // ---- gateway (client-facing) ----
    /// In-flight client writes and registrations submitted at this node.
    client_pending: BTreeMap<(SessionId, u64), ClientOp>,

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
    pending_gates: IdMap<GateToken, GateCont>,
    /// Indices with an outstanding decision-insert gate.
    gated_decisions: BTreeSet<LogIndex>,
    acks: IdMap<u64, AckState>,
    next_ack_id: u64,

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
            fast_match: BTreeMap::new(),
            last_leader_index: LogIndex::ZERO,
            missed_beats: BTreeMap::new(),
            pending_config: None,
            pending_join_notify: None,
            reconfig_queue: VecDeque::new(),
            stalled_ticks: 0,
            last_proactive_repair: LogIndex::ZERO,
            client_pending: BTreeMap::new(),
            pending_proposals: BTreeMap::new(),
            join_contacts,
            silent_elections: 0,
            proposal_mode: ProposalMode::default(),
            assign_cursor: LogIndex::ZERO,
            pending_gates: IdMap::default(),
            gated_decisions: BTreeSet::new(),
            acks: IdMap::default(),
            next_ack_id: 0,
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

    /// The highest index applied to the state machine. Equal to
    /// [`FastRaftEngine::commit_index`] except transiently under
    /// [`Timing::pipelined_apply`], between commit and the drain stage.
    pub fn applied_index(&self) -> LogIndex {
        self.core.applied.index()
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

    /// Inserts currently parked behind the [`InsertGate`]: continuations
    /// awaiting a `gate_ready` call. Zero for ungated (plain Fast Raft)
    /// engines. Liveness oracles assert this drains to zero at quiescence.
    pub fn pending_gate_count(&self) -> usize {
        self.pending_gates.len()
    }

    /// Indices holding an outstanding decision-insert reservation. Each
    /// reservation blocks `leader_log_settled()` (and with it reconfig,
    /// term no-ops, read nudges, and forwarded-proposal acceptance) until
    /// its gate resolves — so a reservation that outlives every pending
    /// gate is a permanent liveness wedge, and oracles assert
    /// `gated_decision_count() == 0` whenever `pending_gate_count() == 0`.
    pub fn gated_decision_count(&self) -> usize {
        self.gated_decisions.len()
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
    pub fn on_timer(
        &mut self,
        base: TimerKind,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        match base {
            TimerKind::Election
                if self.core.role != Role::Leader && self.join_contacts.is_none() => {
                    self.start_election(out);
                }
            TimerKind::Heartbeat
                if self.core.role == Role::Leader => {
                    self.note_missed_beats(out);
                    // §IV-B: AppendEntries carry entries from nextIndex through
                    // lastLeaderIndex — leader-approved entries only.
                    self.core.heartbeat(self.last_leader_index, out);
                }
            TimerKind::LeaderTick
                if self.core.role == Role::Leader => {
                    self.run_decision_loop(gate, out);
                    self.maybe_fill_hole(out);
                    self.start_next_reconfig(out);
                    out.set_timer(
                        self.timers.map(TimerKind::LeaderTick),
                        self.core.timing.decision_tick,
                    );
                }
            TimerKind::ProposalRetry => self.retry_proposals(out),
            TimerKind::JoinRetry
                if self.join_contacts.is_some() => {
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
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Configuration filter (§III-A): consensus messages from sites
        // outside the configuration are ignored. Exceptions: client-level
        // traffic, and everything while we are not ourselves a member yet
        // (joiners must accept catch-up AppendEntries).
        let exempt = msg.is_client_traffic() || !self.core.config.contains(self.core.id);
        if !exempt && !self.core.config.contains(from) && !self.core.learners.contains(&from) {
            out.observe(Observation::MessageIgnored {
                reason: "sender not in configuration",
            });
            return;
        }
        // Any message from a live member clears its missed-beat counter.
        self.missed_beats.remove(&from);

        match msg {
            FastRaftMessage::ProposeAt { index, entry } => {
                self.on_propose_at(from, index, entry, gate, out)
            }
            FastRaftMessage::Vote {
                index,
                entry,
                commit_index,
            } => self.on_vote(from, index, entry, commit_index, out),
            FastRaftMessage::ProposeReply {
                id,
                committed,
                leader_hint,
            } => {
                if let Some(hint) = leader_hint {
                    self.core.leader_hint = Some(hint);
                }
                if committed && self.pending_proposals.remove(&id).is_some() {
                    out.observe(Observation::ProposalCommitted {
                        id,
                        index: LogIndex::ZERO,
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
                gate,
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
                    self.register_read(session, seq, from, gate, out);
                }
            }
            FastRaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => self.on_client_reply(session, seq, outcome, out),
            FastRaftMessage::RequestVote {
                term,
                candidate,
                last_leader_index,
                last_leader_term,
            } => self.on_request_vote(from, term, candidate, last_leader_index, last_leader_term, out),
            FastRaftMessage::RequestVoteReply {
                term,
                granted,
                self_approved,
            } => self.on_vote_reply(from, term, granted, self_approved, gate, out),
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
    pub fn gate_ready(
        &mut self,
        token: GateToken,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let Some(cont) = self.pending_gates.remove(&token) else {
            return;
        };
        match cont {
            GateCont::ProposerVote { index, entry } => {
                self.finish_proposer_insert(index, entry, out);
            }
            GateCont::Decision { index, entry } => {
                self.gated_decisions.remove(&index);
                let committed = self.finish_decision_insert(index, entry, out);
                if committed {
                    // Commit advanced: the loop may continue.
                    self.run_decision_loop(gate, out);
                }
            }
            GateCont::LeaderAppend { index, entry } => {
                // The reservation drains whether or not the insert applies:
                // leaving it would hold `leader_log_settled()` false forever,
                // wedging reconfig, term no-ops, read nudges and (under
                // LeaderForward) every forwarded proposal. A continuation
                // from a superseded term must not insert — the slot may
                // since hold (even have committed) a newer leader's entry.
                // Its forwarded id's slot reservation goes with it, or a
                // retry would be ignored as in flight, and answered
                // `committed` once another entry commits at that slot.
                self.gated_decisions.remove(&index);
                if self.core.role == Role::Leader && entry.term == self.core.current_term {
                    self.insert_leader_entry(index, entry, out);
                    self.advance_commit_classic(out);
                } else if self.core.id_index.get(&entry.id) == Some(&index)
                    && self.core.log.get(index).is_none_or(|e| e.id != entry.id)
                {
                    self.core.id_index.remove(&entry.id);
                }
            }
            GateCont::Append { index, entry, ack } => {
                // A continuation from a superseded term must not apply: the
                // slot may since hold (even have committed) a newer leader's
                // entry. The batch's AckState records the term it was
                // verified under; skip the insert when it is stale and let
                // finish_append_ack drop the ack for the same reason.
                let (stale, done) = {
                    let st = self.acks.get_mut(&ack).expect("ack state");
                    st.remaining -= 1;
                    (st.term != self.core.current_term, st.remaining == 0)
                };
                if !stale {
                    self.apply_append_insert(index, entry, out);
                }
                if done {
                    let st = self.acks.remove(&ack).expect("ack state");
                    self.finish_append_ack(st, out);
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
}