//! Direct engine tests for [`ProposalMode::LeaderForward`] — the
//! contention-free proposal path used by C-Raft's global level — and for
//! the decision-loop mechanics around it.

use bytes::Bytes;
use consensus_core::{
    FastRaftEngine, FastRaftMessage, GateRecorder, ProceedGate, ProposalMode, TimerProfile,
};
use des::SimRng;
use raft::{Role, Timing};
use wire::{Actions, Configuration, LogIndex, LogScope, NodeId, Payload, SessionId, TimerKind};

fn engine(id: u64, members: u64) -> FastRaftEngine {
    let cfg: Configuration = (0..members).map(NodeId).collect();
    FastRaftEngine::new(
        NodeId(id),
        cfg,
        LogScope::Global,
        TimerProfile::Base,
        Timing::lan(),
        SimRng::seed_from_u64(7000 + id),
    )
}

/// Drives a set of engines synchronously (a minimal lockstep for raw
/// engines, which `raft::testkit` cannot host because of the gate
/// parameter).
struct Net {
    engines: Vec<FastRaftEngine>,
    queue: std::collections::VecDeque<(NodeId, NodeId, FastRaftMessage)>,
}

impl Net {
    fn new(engines: Vec<FastRaftEngine>) -> Self {
        Net {
            engines,
            queue: Default::default(),
        }
    }

    fn route(&mut self, from: NodeId, out: Actions<FastRaftMessage>) {
        for (to, msg) in out.sends {
            self.queue.push_back((from, to, msg));
        }
    }

    fn with<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut FastRaftEngine, &mut ProceedGate, &mut Actions<FastRaftMessage>) -> R,
    ) -> R {
        let mut out = Actions::new();
        let mut gate = ProceedGate;
        let idx = id.as_u64() as usize;
        let r = f(&mut self.engines[idx], &mut gate, &mut out);
        self.route(id, out);
        r
    }

    fn deliver_all(&mut self) {
        let mut guard = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.with(to, |e, g, out| e.on_message(from, msg, g, out));
            guard += 1;
            assert!(guard < 100_000, "livelock");
        }
    }

    fn tick(&mut self, id: NodeId, kind: TimerKind) {
        self.with(id, |e, g, out| e.on_timer(kind, g, out));
        self.deliver_all();
    }

    fn engine(&self, id: NodeId) -> &FastRaftEngine {
        &self.engines[id.as_u64() as usize]
    }
}

/// Seq 1 of its own client session: every client value is session-keyed.
fn write(session: u64, data: &'static [u8]) -> Payload {
    Payload::Write {
        session: SessionId::client(session),
        seq: 1,
        data: Bytes::from_static(data),
    }
}

fn forward_cluster(n: u64) -> Net {
    let mut engines: Vec<FastRaftEngine> = (0..n).map(|i| engine(i, n)).collect();
    for e in &mut engines {
        e.set_proposal_mode(ProposalMode::LeaderForward);
    }
    let mut net = Net::new(engines);
    for i in 0..n {
        net.with(NodeId(i), |e, _g, out| e.bootstrap(out));
    }
    // Node 0 leads.
    net.with(NodeId(0), |e, g, out| {
        e.on_timer(TimerKind::Election, g, out)
    });
    net.deliver_all();
    assert_eq!(net.engine(NodeId(0)).role(), Role::Leader);
    net
}

#[test]
fn forwarded_proposals_get_sequential_indices() {
    let mut net = forward_cluster(3);
    // Two proposals from different nodes, interleaved before any delivery:
    // the leader must assign distinct, sequential slots.
    net.with(NodeId(1), |e, g, out| {
        e.propose_payload(write(1, b"a"), g, out)
    });
    net.with(NodeId(2), |e, g, out| {
        e.propose_payload(write(2, b"b"), g, out)
    });
    net.deliver_all();
    let leader = net.engine(NodeId(0));
    assert_eq!(leader.log().len(), 2, "both proposals appended");
    assert_eq!(leader.last_leader_index(), LogIndex(2));
    // Replication + commit over heartbeats.
    net.tick(NodeId(0), TimerKind::Heartbeat);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    assert_eq!(net.engine(NodeId(0)).commit_index(), LogIndex(2));
}

#[test]
fn forwarded_duplicate_is_appended_once() {
    let mut net = forward_cluster(3);
    let id = net.with(NodeId(1), |e, g, out| {
        e.propose_payload(write(3, b"dup"), g, out)
    });
    net.deliver_all();
    // Retry fires before commit: same id forwarded again.
    net.tick(NodeId(1), TimerKind::ProposalRetry);
    let leader = net.engine(NodeId(0));
    let copies = leader.log().iter().filter(|(_, e)| e.id == id).count();
    assert_eq!(copies, 1, "duplicate forward created a second slot");
}

#[test]
fn forwarded_proposal_redirects_to_leader() {
    let mut net = forward_cluster(3);
    // Erase node 2's leader knowledge by simulating a fresh join? Simpler:
    // node 2 proposes; its hint is the leader already (heartbeats), so the
    // proposal goes straight there and commits; the proposer learns via
    // ProposeReply.
    let id = net.with(NodeId(2), |e, g, out| {
        e.propose_payload(write(4, b"c"), g, out)
    });
    net.deliver_all();
    net.tick(NodeId(0), TimerKind::Heartbeat);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    assert_eq!(net.engine(NodeId(2)).pending_proposals(), 0, "proposer acked");
    let leader = net.engine(NodeId(0));
    let committed: Vec<_> = leader
        .log()
        .iter()
        .filter(|(k, _)| *k <= leader.commit_index())
        .map(|(_, e)| e.id)
        .collect();
    assert!(committed.contains(&id));
}

#[test]
fn unsettled_leader_defers_forwarded_proposals() {
    // A fresh leader with recovered (undecided) votes must not assign slots
    // until the backlog is decided: otherwise it could stomp a chosen entry.
    let mut net = forward_cluster(3);
    // Keep the mode but inject a broadcast-style self-approved entry at
    // index 1 on nodes 1 and 2, then force a leader change to node 1 so it
    // inherits an undecided index.
    // (Simulated by switching node 1's mode to Broadcast for one proposal.)
    net.with(NodeId(1), |e, g, out| {
        e.set_proposal_mode(ProposalMode::Broadcast);
        e.propose_payload(write(5, b"chosen?"), g, out);
        e.set_proposal_mode(ProposalMode::LeaderForward);
    });
    // Deliver the broadcast but NOT the votes to the old leader; then elect
    // node 1 (which holds the self-approved entry).
    net.deliver_all();
    net.with(NodeId(1), |e, g, out| {
        e.on_timer(TimerKind::Election, g, out)
    });
    net.deliver_all();
    if net.engine(NodeId(1)).role() == Role::Leader {
        // Recovery replays the self-approved entry; until the decision loop
        // settles it, forwarded proposals are deferred (not lost — retried).
        net.with(NodeId(2), |e, g, out| {
            e.propose_payload(write(6, b"later"), g, out)
        });
        net.deliver_all();
        // Decide the backlog, then the retry lands.
        net.tick(NodeId(1), TimerKind::LeaderTick);
        net.tick(NodeId(2), TimerKind::ProposalRetry);
        net.tick(NodeId(1), TimerKind::LeaderTick);
        net.tick(NodeId(1), TimerKind::Heartbeat);
        net.tick(NodeId(1), TimerKind::Heartbeat);
        let leader = net.engine(NodeId(1));
        // Both the inherited entry and the forwarded one must be present at
        // distinct indices.
        assert!(leader.log().len() >= 2);
        let ids: Vec<_> = leader.log().iter().map(|(_, e)| e.id).collect();
        assert_eq!(
            ids.len(),
            ids.iter().collect::<std::collections::HashSet<_>>().len(),
            "no id appears twice"
        );
    }
}

#[test]
fn mixed_modes_interoperate() {
    // Followers in Broadcast mode while the leader is addressed via
    // forwarded proposals: the leader's log remains the single order.
    let mut net = forward_cluster(5);
    net.with(NodeId(3), |e, g, out| {
        e.set_proposal_mode(ProposalMode::Broadcast);
        e.propose_payload(write(7, b"bcast"), g, out);
    });
    net.with(NodeId(1), |e, g, out| {
        e.propose_payload(write(8, b"fwd"), g, out)
    });
    net.deliver_all();
    for _ in 0..4 {
        net.tick(NodeId(0), TimerKind::LeaderTick);
        net.tick(NodeId(0), TimerKind::Heartbeat);
        // The forwarded proposal is deferred while the broadcast entry is
        // undecided (settledness guard); the proposer's retry lands it.
        net.tick(NodeId(1), TimerKind::ProposalRetry);
    }
    let leader = net.engine(NodeId(0));
    let committed: Vec<_> = leader
        .log()
        .iter()
        .filter(|(k, _)| *k <= leader.commit_index())
        .map(|(_, e)| match &e.payload {
            Payload::Write { data, .. } => data.clone(),
            _ => Bytes::new(),
        })
        .collect();
    assert!(committed.iter().any(|d| &d[..] == b"bcast"));
    assert!(committed.iter().any(|d| &d[..] == b"fwd"));
}

#[test]
fn a_dropped_gated_reservation_leaves_the_retry_to_be_placed() {
    // Node 0 leads and reserves slot 1 for node 1's forwarded write behind a
    // gate. Node 2 deposes it before the gate releases, so the insert is
    // dropped. Node 0 leads again and slot 1 commits node 2's write. Node
    // 1's retry must then be placed: no log holds its write, so an answer
    // of `committed` would lose it.
    let mut net = forward_cluster(3);
    let lost = net.with(NodeId(1), |e, g, out| {
        e.propose_payload(write(1, b"lost?"), g, out)
    });
    let (from, to, msg) = net.queue.pop_front().expect("the forward");
    assert_eq!((from, to), (NodeId(1), NodeId(0)));
    let mut gate = GateRecorder::new();
    let mut out = Actions::new();
    net.engines[0].on_message(from, msg, &mut gate, &mut out);
    net.route(NodeId(0), out);
    let reserved = gate.drain();
    assert_eq!(reserved.len(), 1);
    assert_eq!(
        (reserved[0].index, reserved[0].entry.id),
        (LogIndex(1), lost)
    );

    net.tick(NodeId(2), TimerKind::Election);
    assert_eq!(net.engine(NodeId(2)).role(), Role::Leader);
    net.with(NodeId(0), |e, g, out| {
        e.gate_ready(reserved[0].token, g, out)
    });
    net.deliver_all();
    assert_eq!(net.engine(NodeId(0)).log().get(LogIndex(1)), None);

    net.tick(NodeId(0), TimerKind::Election);
    assert_eq!(net.engine(NodeId(0)).role(), Role::Leader);
    let other = net.with(NodeId(2), |e, g, out| {
        e.propose_payload(write(2, b"other"), g, out)
    });
    net.deliver_all();
    net.tick(NodeId(0), TimerKind::Heartbeat);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    let leader = net.engine(NodeId(0));
    assert_eq!(leader.commit_index(), LogIndex(1));
    assert_eq!(leader.log().get(LogIndex(1)).map(|e| e.id), Some(other));

    net.tick(NodeId(1), TimerKind::ProposalRetry);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    let leader = net.engine(NodeId(0));
    assert_eq!(
        leader.log().get(LogIndex(2)).map(|e| e.id),
        Some(lost),
        "the retry was not placed"
    );
    assert_eq!(leader.commit_index(), LogIndex(2));
}
