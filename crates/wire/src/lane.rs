//! One client session's side of the client contract.
//!
//! [`crate::ClientRequest`] documents the contract: a session's writes and
//! registration carry seqs 1, 2, 3, … without gaps, its reads carry
//! [`crate::read_id`]s apart from them, it has one request in flight, and
//! a retry re-sends the same `(session, seq)`. A [`ClientLane`] keeps that
//! contract once for every host that drives closed-loop clients (the DES
//! runner, the shard fabric, the explorer). It is clockless and sans-IO:
//! the host chooses each op, submits and resubmits the request the lane
//! holds, routes each answer to its lane, and keeps its own retry timers
//! and metrics. The lane opens a linearizable read's window in the
//! [`SafetyChecker`] when it issues the read and hands the checker every
//! finished op, so every host's clients are checked the same way.
//!
//! A session writes to one log per consensus group, so write seqs are
//! gapless per [`GroupId`]; a single-group host uses group 0. Read ids are
//! numbered once per lane, so no `(session, id)` names two reads.

use des::IdMap;

use crate::{
    ClientOp, ClientOutcome, ClientRequest, Consistency, GroupId, LogScope, SafetyChecker,
    SessionId,
};

/// How [`ClientLane::settle`] sorted an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settled {
    /// Not an answer to the outstanding request (a late answer to an
    /// earlier one, or one from another group): nothing changed.
    Stale,
    /// `Redirect` or `Retry`: the request stays outstanding, to be
    /// resubmitted as it is.
    Retry,
    /// A terminal outcome: the lane is idle, and the checker has the op.
    Done,
}

/// One client session: its seqs, its read ids and its request in flight.
#[derive(Debug)]
pub struct ClientLane {
    session: SessionId,
    /// The last write seq per group's log (registrations take seqs too).
    seqs: IdMap<GroupId, u64>,
    /// The last read ordinal, over every group.
    reads: u64,
    /// The request in flight and the group whose log it goes to.
    outstanding: Option<(GroupId, ClientRequest)>,
}

impl ClientLane {
    /// An idle lane for `session`, nothing issued yet.
    pub fn new(session: SessionId) -> Self {
        ClientLane {
            session,
            seqs: IdMap::default(),
            reads: 0,
            outstanding: None,
        }
    }

    /// The lane's session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The last write seq issued to `group`'s log; 0 before the first.
    pub fn last_seq(&self, group: GroupId) -> u64 {
        self.seqs.get(&group).copied().unwrap_or(0)
    }

    /// The request in flight and its group: what to resubmit, unchanged.
    pub fn outstanding(&self) -> Option<(GroupId, &ClientRequest)> {
        self.outstanding.as_ref().map(|(group, req)| (*group, req))
    }

    /// Issues `op` to `group`'s log and returns the request to submit. A
    /// write or a registration takes the group's next seq; a read takes the
    /// lane's next read id and consumes no seq. A linearizable read's
    /// window opens in `safety` here, at its first submission, so a
    /// resubmission never reopens it.
    ///
    /// # Panics
    ///
    /// Panics if a request is still outstanding: a session has one in
    /// flight.
    pub fn issue(
        &mut self,
        group: GroupId,
        op: ClientOp,
        safety: &mut SafetyChecker,
    ) -> &ClientRequest {
        assert!(
            self.outstanding.is_none(),
            "{} issued a second request in flight",
            self.session
        );
        let req = match op {
            ClientOp::Read(consistency) => {
                self.reads += 1;
                let req = ClientRequest::read(self.session, self.reads, consistency);
                if consistency == Consistency::Linearizable {
                    safety.read_started(group, self.session, req.seq);
                }
                req
            }
            op => {
                let seq = self.seqs.entry(group).or_insert(0);
                *seq += 1;
                ClientRequest {
                    session: self.session,
                    seq: *seq,
                    op,
                }
            }
        };
        &self.outstanding.insert((group, req)).1
    }

    /// Sorts an answer from `group`'s log to request `seq` of this session.
    /// Only an answer to the outstanding request counts; a terminal one
    /// clears the lane and reaches `safety` (a write completes at its
    /// index in `ack_scope`, a linearizable read is checked).
    pub fn settle(
        &mut self,
        group: GroupId,
        seq: u64,
        outcome: &ClientOutcome,
        ack_scope: LogScope,
        safety: &mut SafetyChecker,
    ) -> Settled {
        match &self.outstanding {
            Some((g, req)) if *g == group && req.seq == seq => {}
            _ => return Settled::Stale,
        }
        if !outcome.is_terminal() {
            return Settled::Retry;
        }
        let (group, req) = self.outstanding.take().expect("matched above");
        safety.op_completed(group, ack_scope, &req, outcome);
        Settled::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_read_id, LogIndex};
    use bytes::Bytes;

    const G1: GroupId = GroupId(1);
    const G2: GroupId = GroupId(2);
    const LIN: ClientOp = ClientOp::Read(Consistency::Linearizable);

    fn write() -> ClientOp {
        ClientOp::Write(Bytes::from_static(b"w"))
    }

    fn committed(index: u64) -> ClientOutcome {
        ClientOutcome::Committed {
            index: LogIndex(index),
        }
    }

    /// Issues `op` to `group` and settles it with `outcome`.
    fn run(
        lane: &mut ClientLane,
        c: &mut SafetyChecker,
        group: GroupId,
        op: ClientOp,
        outcome: ClientOutcome,
    ) -> u64 {
        let seq = lane.issue(group, op, c).seq;
        let settled = lane.settle(group, seq, &outcome, LogScope::Global, c);
        assert_eq!(settled, Settled::Done);
        seq
    }

    #[test]
    fn writes_take_gapless_seqs_per_group() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        let registered = ClientOutcome::Registered {
            session: lane.session(),
            index: LogIndex(1),
        };
        assert_eq!(
            run(&mut lane, &mut c, G1, ClientOp::Register, registered),
            1
        );
        let seqs: Vec<u64> = [G1, G2, G1, G2, G2]
            .into_iter()
            .map(|g| run(&mut lane, &mut c, g, write(), committed(3)))
            .collect();
        assert_eq!(seqs, [2, 1, 3, 2, 3]);
        assert_eq!((lane.last_seq(G1), lane.last_seq(G2)), (3, 3));
        assert_eq!(lane.last_seq(GroupId(3)), 0);
    }

    #[test]
    fn reads_take_their_own_ids_and_no_seq() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        let ok = || ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(0),
        };
        let stale = ClientOp::Read(Consistency::StaleLocal);
        let w = run(&mut lane, &mut c, G1, write(), committed(1));
        let r1 = run(&mut lane, &mut c, G1, stale, ok());
        let r2 = run(&mut lane, &mut c, G2, LIN, ok());
        let w2 = run(&mut lane, &mut c, G1, write(), committed(2));
        assert_eq!((w, w2), (1, 2), "a read consumes no write seq");
        assert!(is_read_id(r1) && is_read_id(r2) && r1 != r2);
        assert_eq!((r1, r2), (crate::read_id(1), crate::read_id(2)));
    }

    #[test]
    fn a_resubmission_is_the_same_request_and_keeps_its_window() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        let first = lane.issue(G1, LIN, &mut c).clone();
        // A write completing after the read began does not bound it.
        let mut writer = ClientLane::new(SessionId::client(8));
        run(&mut writer, &mut c, G1, write(), committed(50));
        let (group, again) = lane.outstanding().expect("in flight");
        assert_eq!((group, again), (G1, &first));
        let floor = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(10),
        };
        let settled = lane.settle(G1, first.seq, &floor, LogScope::Global, &mut c);
        assert_eq!(settled, Settled::Done);
        assert!(c.is_ok(), "{:?}", c.lin_violations());
        assert_eq!(c.reads_checked(), 1);
    }

    #[test]
    fn retry_and_redirect_keep_the_op_outstanding() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        let seq = lane.issue(G1, write(), &mut c).seq;
        for outcome in [
            ClientOutcome::Retry,
            ClientOutcome::Redirect { leader_hint: None },
        ] {
            let settled = lane.settle(G1, seq, &outcome, LogScope::Global, &mut c);
            assert_eq!(settled, Settled::Retry);
            assert_eq!(lane.outstanding().map(|(_, r)| r.seq), Some(seq));
        }
    }

    #[test]
    fn an_answer_to_another_seq_or_group_is_stale() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        run(&mut lane, &mut c, G1, write(), committed(1));
        let seq = lane.issue(G1, write(), &mut c).seq;
        for (group, seq) in [(G1, seq - 1), (G2, seq)] {
            let settled = lane.settle(group, seq, &committed(99), LogScope::Global, &mut c);
            assert_eq!(settled, Settled::Stale);
        }
        assert_eq!(lane.outstanding().map(|(g, r)| (g, r.seq)), Some((G1, seq)));
        // Index 99 never reached the checker: a read at floor 1 passes.
        let floor = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(1),
        };
        let mut reader = ClientLane::new(SessionId::client(8));
        run(&mut reader, &mut c, G1, LIN, floor);
        assert!(c.is_ok(), "{:?}", c.lin_violations());
    }

    #[test]
    fn a_terminal_outcome_clears_the_lane_and_reaches_the_checker() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        run(&mut lane, &mut c, G1, write(), committed(10));
        assert!(lane.outstanding().is_none());
        let floor = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(5),
        };
        run(&mut lane, &mut c, G1, LIN, floor);
        let v = &c.lin_violations()[0];
        assert_eq!((v.floor, v.bound), (LogIndex(5), LogIndex(10)));
    }

    #[test]
    #[should_panic(expected = "second request in flight")]
    fn a_second_request_in_flight_panics() {
        let mut c = SafetyChecker::new();
        let mut lane = ClientLane::new(SessionId::client(7));
        lane.issue(G1, write(), &mut c);
        lane.issue(G1, write(), &mut c);
    }
}
