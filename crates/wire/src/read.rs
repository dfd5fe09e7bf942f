//! Shared leader-side ReadIndex machinery.
//!
//! Every protocol answers [`crate::Consistency::Linearizable`] reads the
//! same way: the leader captures its commit floor, tags its next
//! AppendEntries round with a fresh **probe** number, and releases the
//! answer only once a classic quorum of acks echoes a probe at least that
//! fresh — proving it was still the leader *after* the read was issued, so
//! the captured floor reflects every completed operation. This module holds
//! the machinery that used to be duplicated (and slowly diverging) between
//! `raft::RaftNode` and `consensus_core::FastRaftNode`: the pending-read
//! queue, the probe counter, retry-idempotent registration, and the
//! quorum-counting ack sweep.
//!
//! The queue is deliberately **message-agnostic**: it never constructs or
//! sends protocol messages. Callers embed [`ReadIndexQueue::probe`] into
//! their own AppendEntries variant, feed echoed probes back through
//! [`ReadIndexQueue::note_ack`], and answer the returned confirmed reads
//! (or the [`ReadIndexQueue::drain`]ed ones, with `Retry`, on leadership
//! loss) through their own reply path — that is the whole surface the two
//! protocols actually differed in.

use std::collections::BTreeSet;

use crate::{Configuration, LogIndex, NodeId, SessionId};

/// A linearizable read awaiting its ReadIndex leadership confirmation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingRead {
    /// The issuing session.
    pub session: SessionId,
    /// The read id (see [`crate::read_id`]): the request's `seq` field,
    /// disjoint from the session's write seqs.
    pub seq: u64,
    /// Who to answer (`self` for reads registered at the leader-gateway).
    pub reply_to: NodeId,
    /// The commit floor captured at registration; returned once confirmed.
    pub floor: LogIndex,
    /// Probe the confirmation round must reach (acks echoing an older probe
    /// prove nothing about leadership at read time).
    probe: u64,
    /// Members that acked a sufficiently fresh probe.
    acks: BTreeSet<NodeId>,
}

/// The leader's queue of in-flight ReadIndex rounds plus the monotone probe
/// counter its heartbeats carry.
#[derive(Clone, Debug, Default)]
pub struct ReadIndexQueue {
    pending: Vec<PendingRead>,
    probe: u64,
}

impl ReadIndexQueue {
    /// An empty queue.
    pub fn new() -> Self {
        ReadIndexQueue::default()
    }

    /// The probe value heartbeats must carry so their acks count toward
    /// every registered round.
    pub fn probe(&self) -> u64 {
        self.probe
    }

    /// `true` when no read awaits confirmation.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of reads awaiting confirmation.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when this exact read is already being confirmed. Client
    /// resubmissions must not stack a second round (it would grow unbounded
    /// while the leader lacks an ack quorum, then answer in duplicate);
    /// the caller just re-probes for liveness instead.
    pub fn is_pending(&self, session: SessionId, seq: u64, reply_to: NodeId) -> bool {
        self.pending
            .iter()
            .any(|r| r.session == session && r.seq == seq && r.reply_to == reply_to)
    }

    /// Registers a read at the captured commit `floor` under a fresh probe.
    /// The caller dispatches a heartbeat round immediately afterwards so
    /// confirmation does not wait out the heartbeat period.
    pub fn register(&mut self, session: SessionId, seq: u64, reply_to: NodeId, floor: LogIndex) {
        self.probe += 1;
        self.pending.push(PendingRead {
            session,
            seq,
            reply_to,
            floor,
            probe: self.probe,
            acks: BTreeSet::new(),
        });
    }

    /// Counts a follower's current-term heartbeat ack (echoing `probe`)
    /// toward every pending round, returning the reads whose confirmation
    /// quorum is now complete; the caller answers them at their floor. The
    /// leader's own (implicit) vote is counted iff it is a voting member of
    /// `config`; acks from non-members are ignored, and an ack `from` the
    /// leader itself never lands in the explicit set (the implicit self
    /// vote already covers it — counting both would let a self-addressed
    /// heartbeat confirm a read without proving anything about the rest of
    /// the quorum).
    pub fn note_ack(
        &mut self,
        from: NodeId,
        probe: u64,
        config: &Configuration,
        leader: NodeId,
    ) -> Vec<PendingRead> {
        if self.pending.is_empty() || !config.contains(from) {
            return Vec::new();
        }
        let quorum = config.classic_quorum();
        let self_vote = usize::from(config.contains(leader));
        let mut confirmed = Vec::new();
        self.pending.retain_mut(|r| {
            if probe >= r.probe && from != leader {
                r.acks.insert(from);
            }
            if r.acks.len() + self_vote >= quorum {
                confirmed.push(r.clone());
                false
            } else {
                true
            }
        });
        confirmed
    }

    /// Takes every pending round out of the queue (leadership lost or
    /// re-confirmed under a different term): the caller must answer each
    /// with `Retry` — the captured floors prove nothing anymore.
    pub fn drain(&mut self) -> Vec<PendingRead> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u64) -> Configuration {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn confirmation_needs_fresh_probe_quorum() {
        let mut q = ReadIndexQueue::new();
        let c = cfg(5); // classic quorum 3: leader + 2 acks
        q.register(SessionId(1), 1, NodeId(0), LogIndex(7));
        let p = q.probe();
        // A stale probe never counts.
        assert!(q.note_ack(NodeId(1), p - 1, &c, NodeId(0)).is_empty());
        assert!(q.note_ack(NodeId(1), p, &c, NodeId(0)).is_empty());
        let confirmed = q.note_ack(NodeId(2), p, &c, NodeId(0));
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].floor, LogIndex(7));
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let mut q = ReadIndexQueue::new();
        let c = cfg(5);
        q.register(SessionId(1), 1, NodeId(0), LogIndex(1));
        let p = q.probe();
        assert!(q.note_ack(NodeId(1), p, &c, NodeId(0)).is_empty());
        assert!(q.note_ack(NodeId(1), p, &c, NodeId(0)).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn leader_self_ack_never_double_counts() {
        let mut q = ReadIndexQueue::new();
        let c = cfg(3); // quorum 2: implicit self vote + 1 follower ack
        q.register(SessionId(1), 1, NodeId(0), LogIndex(3));
        let p = q.probe();
        // A self-addressed ack must not stack on the implicit self vote
        // and confirm without any follower having echoed the probe.
        assert!(q.note_ack(NodeId(0), p, &c, NodeId(0)).is_empty());
        assert!(q.note_ack(NodeId(0), p, &c, NodeId(0)).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.note_ack(NodeId(1), p, &c, NodeId(0)).len(), 1);
    }

    #[test]
    fn non_member_acks_are_ignored() {
        let mut q = ReadIndexQueue::new();
        let c = cfg(3); // quorum 2: leader + 1
        q.register(SessionId(1), 1, NodeId(0), LogIndex(1));
        let p = q.probe();
        assert!(q.note_ack(NodeId(9), p, &c, NodeId(0)).is_empty());
        assert_eq!(q.note_ack(NodeId(1), p, &c, NodeId(0)).len(), 1);
    }

    #[test]
    fn retry_idempotence_via_is_pending() {
        let mut q = ReadIndexQueue::new();
        q.register(SessionId(1), 4, NodeId(2), LogIndex(1));
        assert!(q.is_pending(SessionId(1), 4, NodeId(2)));
        assert!(!q.is_pending(SessionId(1), 4, NodeId(3)));
        assert!(!q.is_pending(SessionId(1), 5, NodeId(2)));
    }

    #[test]
    fn drain_fails_everything() {
        let mut q = ReadIndexQueue::new();
        q.register(SessionId(1), 1, NodeId(0), LogIndex(1));
        q.register(SessionId(2), 1, NodeId(3), LogIndex(2));
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
        // The probe counter survives the drain: later rounds stay fresher
        // than anything acked before the leadership change.
        assert_eq!(q.probe(), 2);
    }

    #[test]
    fn later_probe_confirms_earlier_round() {
        let mut q = ReadIndexQueue::new();
        let c = cfg(3);
        q.register(SessionId(1), 1, NodeId(0), LogIndex(5));
        let p1 = q.probe();
        q.register(SessionId(2), 1, NodeId(0), LogIndex(6));
        let p2 = q.probe();
        assert!(p2 > p1);
        // One ack at the newest probe confirms both rounds.
        let confirmed = q.note_ack(NodeId(1), p2, &c, NodeId(0));
        assert_eq!(confirmed.len(), 2);
    }
}
