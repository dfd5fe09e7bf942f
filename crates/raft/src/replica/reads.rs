//! The linearizable read path: ReadIndex rounds and the leader lease.

use std::collections::BTreeSet;

use des::{SimDuration, SimTime};
use wire::{
    Actions, ClientOutcome, Configuration, LeaseState, LogIndex, LogScope, NodeId, Observation,
    ReadIndexQueue, SessionId, VoteHold,
};

use super::{reply, ClientReplyMessage};
use crate::Timing;

/// Everything one consensus level needs to answer
/// [`wire::Consistency::Linearizable`] reads: as leader, the ReadIndex queue
/// and the lease that short-circuits it; as follower, the vote hold that
/// makes granted leases sound; as gateway, the reads submitted here.
///
/// At the C-Raft global level the same machinery yields the recursive
/// lease: the "followers" granting are the other clusters' leaders.
#[derive(Debug)]
pub struct ReadPath {
    me: NodeId,
    scope: LogScope,
    /// [`Timing::lease_duration`].
    lease_duration: SimDuration,
    /// [`Timing::max_clock_skew`].
    max_clock_skew: SimDuration,
    /// Leader side: in-flight ReadIndex rounds (shared machinery in
    /// `wire::read`).
    queue: ReadIndexQueue,
    /// Gateway side: in-flight linearizable reads submitted at this node.
    local_reads: BTreeSet<(SessionId, u64)>,
    /// This node's local clock, stamped by the embedding before each event
    /// via [`wire::ConsensusProtocol::set_local_clock`]. Stays
    /// [`SimTime::ZERO`] (clockless) in purely event-driven embeddings,
    /// which keeps every lease path inert.
    local_now: SimTime,
    /// Leader-side grant collection (valid ⇒ linearizable reads served
    /// locally with zero messages; shared machinery in `wire::lease`).
    lease: LeaseState,
    /// Follower-side half of the promise: refuse rival candidates while a
    /// grant this node emitted is still live on its own clock.
    vote_hold: VoteHold,
}

impl ReadPath {
    /// The idle read path of node `me` at consensus level `scope`.
    pub fn new(me: NodeId, scope: LogScope, timing: &Timing) -> Self {
        ReadPath {
            me,
            scope,
            lease_duration: timing.lease_duration,
            max_clock_skew: timing.max_clock_skew,
            queue: ReadIndexQueue::new(),
            local_reads: BTreeSet::new(),
            local_now: SimTime::ZERO,
            lease: LeaseState::new(),
            vote_hold: VoteHold::new(),
        }
    }

    /// Stamps this node's view of "now" (an input like any message). Never
    /// stamping it leaves the node clockless and every lease path inert.
    pub fn set_local_clock(&mut self, now: SimTime) {
        self.local_now = now;
    }

    /// The probe value heartbeats must carry so their acks count toward
    /// every registered ReadIndex round.
    pub fn probe(&self) -> u64 {
        self.queue.probe()
    }

    /// Notes a linearizable read submitted at this gateway (answered here
    /// or forwarded to the leader) as in flight.
    pub fn track_local(&mut self, session: SessionId, seq: u64) {
        self.local_reads.insert((session, seq));
    }

    /// `true` while the read `(session, seq)` submitted here is unanswered.
    pub fn is_local(&self, session: SessionId, seq: u64) -> bool {
        self.local_reads.contains(&(session, seq))
    }

    /// Drops the in-flight note of a read once it is answered here.
    pub fn forget_local(&mut self, session: SessionId, seq: u64) {
        self.local_reads.remove(&(session, seq));
    }

    fn respond<M: ClientReplyMessage>(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) {
        if to == self.me {
            self.forget_local(session, seq);
        }
        reply(self.me, to, session, seq, outcome, out);
    }

    fn lease_valid(&self, config: &Configuration) -> bool {
        self.lease
            .valid_at(self.local_now, config, self.me, self.max_clock_skew)
    }

    /// Leader side of a linearizable read whose commit `floor` is known
    /// servable: answer from the lease when it is live, otherwise confirm
    /// leadership with a heartbeat round first. Returns `true` when the
    /// caller must dispatch that round now rather than waiting out the
    /// heartbeat period.
    pub fn register_read<M: ClientReplyMessage>(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        floor: LogIndex,
        config: &Configuration,
        out: &mut Actions<M>,
    ) -> bool {
        // Lease fast path: a classic quorum of live grants proves no rival
        // can have been elected, so the current commit floor is
        // linearizable to serve locally — zero messages, zero round trips
        // (see `docs/CONSISTENCY.md` for the safety argument).
        if self.lease_valid(config) {
            out.observe(Observation::LeaseRead {
                session,
                seq,
                floor,
            });
            self.answer_read(reply_to, session, seq, floor, out);
            return false;
        }
        if config.classic_quorum() <= 1 {
            // A single-voter configuration confirms itself.
            out.observe(Observation::ReadIndexRead {
                session,
                seq,
                floor,
            });
            self.answer_read(reply_to, session, seq, floor, out);
            return false;
        }
        // Retry idempotence (see `wire::ReadIndexQueue::is_pending`): the
        // pending round answers the retry too; just re-probe for liveness
        // in case the original heartbeats were lost.
        if !self.queue.is_pending(session, seq, reply_to) {
            self.queue.register(session, seq, reply_to, floor);
        }
        true
    }

    /// Counts a follower's current-term heartbeat ack toward pending
    /// ReadIndex rounds: it confirms leadership for every round registered
    /// at or before the echoed `probe`.
    pub fn note_read_ack<M: ClientReplyMessage>(
        &mut self,
        from: NodeId,
        probe: u64,
        config: &Configuration,
        out: &mut Actions<M>,
    ) {
        for r in self.queue.note_ack(from, probe, config, self.me) {
            out.observe(Observation::ReadIndexRead {
                session: r.session,
                seq: r.seq,
                floor: r.floor,
            });
            self.answer_read(r.reply_to, r.session, r.seq, r.floor, out);
        }
    }

    /// Leadership (or the term it was confirmed under) is gone: every read
    /// still awaiting its ReadIndex confirmation is failed with `Retry` —
    /// it must not be answered — and collected lease grants are void (they
    /// promised a quorum for *this* leadership).
    pub fn fail_pending_reads<M: ClientReplyMessage>(&mut self, out: &mut Actions<M>) {
        for r in self.queue.drain() {
            self.respond(r.reply_to, r.session, r.seq, ClientOutcome::Retry, out);
        }
        self.lease.clear();
    }

    /// Answers a linearizable read at its admission `floor`: the state
    /// machine applies at the commit point, so it already covers the floor.
    fn answer_read<M: ClientReplyMessage>(
        &mut self,
        reply_to: NodeId,
        session: SessionId,
        seq: u64,
        floor: LogIndex,
        out: &mut Actions<M>,
    ) {
        let outcome = ClientOutcome::ReadOk {
            scope: self.scope,
            commit_floor: floor,
        };
        self.respond(reply_to, session, seq, outcome, out);
    }

    /// Arms the lease of a freshly elected leader behind the new-leader
    /// barrier: a lease the deposed leader could still be serving under
    /// expires within `lease_duration + max_clock_skew` of this instant (its
    /// newest grant predates this election win), so waiting that window out
    /// before serving lease reads makes the handover safe even against
    /// grants this node never saw. Inert while clockless or disabled.
    pub fn arm_lease(&mut self) {
        self.lease.clear();
        if !self.lease_duration.is_zero() {
            self.lease
                .enable_after(self.local_now, self.lease_duration + self.max_clock_skew);
        }
    }

    /// Leader side: collects the lease grant riding a follower's append ack
    /// (success or not — the promise is about voting, not log state). A
    /// rejected grant means the granter's clock runs ahead beyond the
    /// modeled bound: the lease quietly degrades to the ReadIndex fallback
    /// rather than counting an unsound promise.
    pub fn record_grant<M>(&mut self, from: NodeId, lease_until: SimTime, out: &mut Actions<M>) {
        if !self.lease.record_grant(
            from,
            lease_until,
            self.local_now,
            self.lease_duration,
            self.max_clock_skew,
        ) {
            out.observe(Observation::MessageIgnored {
                reason: "lease grant beyond clock-skew bound",
            });
        }
    }

    /// Follower-side lease grant riding an append ack: a promise not to
    /// vote for anyone but `leader` before `now + lease_duration` on this
    /// node's clock, enforced locally via [`VoteHold`]. Returns
    /// [`SimTime::ZERO`] (no grant) when this node is clockless or leases
    /// are disabled.
    pub fn emit_lease_grant(&mut self, leader: NodeId) -> SimTime {
        if self.local_now == SimTime::ZERO || self.lease_duration.is_zero() {
            return SimTime::ZERO;
        }
        let until = self.local_now + self.lease_duration;
        self.vote_hold.note_grant(leader, until);
        until
    }

    /// `true` (with the reason observed) when a `RequestVote` from
    /// `candidate` must be dropped to keep a lease promise. Either way the
    /// request is dropped *without* adopting the candidate's term — a
    /// partitioned candidate's term inflation must not depose a leader whose
    /// lease a quorum still backs.
    pub fn refuses_vote<M>(
        &self,
        candidate: NodeId,
        is_leader: bool,
        config: &Configuration,
        out: &mut Actions<M>,
    ) -> bool {
        // Lease hold: the ack this node last sent carried a promise not to
        // elect anyone but its leader before `until` on this clock. The
        // hold provably expires before this node's own election timer can
        // fire (`Timing::validate` pins lease + skew ≤ election_min), so a
        // dead leader still gets replaced.
        if self.vote_hold.blocks(candidate, self.local_now) {
            out.observe(Observation::MessageIgnored {
                reason: "vote request during lease hold",
            });
            return true;
        }
        // A leader whose own lease is live refuses too: a quorum is
        // promising not to elect anyone else, so the candidate provably
        // cannot win — stepping down would only forfeit the lease's
        // availability for nothing.
        if is_leader && self.lease_valid(config) {
            out.observe(Observation::MessageIgnored {
                reason: "vote request at leader with live lease",
            });
            return true;
        }
        false
    }
}
