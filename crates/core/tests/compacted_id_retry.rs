//! Retries of a client write whose entry was compacted away.
//!
//! A replica maps proposal ids to log slots only above its compaction
//! horizon, so once a write's slot is compacted its id is forgotten. The
//! duplicate is stopped by the exactly-once key every client value carries,
//! its `(session, seq)`: the applied session table answers a retry at the
//! door (`Duplicate { first_index }`, nothing persisted), and a copy that
//! does take a second slot is skipped when it applies.

use bytes::Bytes;
use consensus_core::{FastRaftEngine, FastRaftMessage, ProceedGate, TimerProfile};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftMessage, RaftNode, Role, Timing};
use wire::{
    Actions, ClientOutcome, Configuration, ConsensusProtocol, LogEntry, LogIndex, LogScope, NodeId,
    Observation, Payload, SessionId, TimerKind,
};

/// The session of the write every case retries (seq 1).
const RETRIED: SessionId = SessionId::client(1);

/// Compacts after every two applied entries.
fn snappy() -> Timing {
    Timing {
        snapshot_threshold: 2,
        ..Timing::lan()
    }
}

/// Raw Fast Raft engines driven in lockstep, whose step outputs the test
/// can read before they are routed.
struct Net {
    engines: Vec<FastRaftEngine>,
    queue: std::collections::VecDeque<(NodeId, NodeId, FastRaftMessage)>,
}

impl Net {
    fn new(members: u64) -> Self {
        let cfg: Configuration = (0..members).map(NodeId).collect();
        let engines = (0..members)
            .map(|i| {
                FastRaftEngine::new(
                    NodeId(i),
                    cfg.clone(),
                    LogScope::Global,
                    TimerProfile::Base,
                    snappy(),
                    SimRng::seed_from_u64(5100 + i),
                )
            })
            .collect();
        Net {
            engines,
            queue: Default::default(),
        }
    }

    /// Runs one step at `id` and returns its effects, unrouted.
    fn step(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut FastRaftEngine, &mut ProceedGate, &mut Actions<FastRaftMessage>),
    ) -> Actions<FastRaftMessage> {
        let mut out = Actions::new();
        f(
            &mut self.engines[id.as_u64() as usize],
            &mut ProceedGate,
            &mut out,
        );
        out
    }

    /// Queues the sends of a step taken at `from`.
    fn route(&mut self, from: NodeId, out: Actions<FastRaftMessage>) {
        for (to, msg) in out.sends {
            self.queue.push_back((from, to, msg));
        }
    }

    /// Runs one step at `id` and routes its sends.
    fn with(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut FastRaftEngine, &mut ProceedGate, &mut Actions<FastRaftMessage>),
    ) {
        let out = self.step(id, f);
        self.route(id, out);
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

/// Proposes seq 1 of `session` at `proposer`, commits it everywhere, and
/// returns the proposer's `ProposeAt` entry as it went out.
fn commit_write(net: &mut Net, proposer: NodeId, session: SessionId) -> (LogIndex, LogEntry) {
    let out = net.step(proposer, |e, g, out| {
        let data = Bytes::from_static(b"v");
        e.propose_payload(
            Payload::Write {
                session,
                seq: 1,
                data,
            },
            g,
            out,
        );
    });
    let (index, entry) = out
        .sends
        .iter()
        .find_map(|(_, m)| match m {
            FastRaftMessage::ProposeAt { index, entry } => Some((*index, entry.clone())),
            _ => None,
        })
        .expect("a broadcast proposal");
    net.route(proposer, out);
    net.deliver_all();
    net.tick(NodeId(0), TimerKind::LeaderTick);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    (index, entry)
}

/// Three Fast Raft sites led by node 0, every one of which has compacted
/// away the slot of node 1's write under [`RETRIED`]: returns that slot and
/// the write's entry.
fn compacted_write() -> (Net, LogIndex, LogEntry) {
    let mut net = Net::new(3);
    for i in 0..3 {
        net.with(NodeId(i), |e, _, out| e.bootstrap(out));
    }
    net.tick(NodeId(0), TimerKind::Election);
    assert_eq!(net.engine(NodeId(0)).role(), Role::Leader);

    let (first, entry) = commit_write(&mut net, NodeId(1), RETRIED);
    for session in 2..8 {
        commit_write(&mut net, NodeId(2), SessionId::client(session));
    }
    for n in 0..3 {
        let e = net.engine(NodeId(n));
        assert!(
            e.log().compacted_through() >= first,
            "{n} compacted past {first}"
        );
        assert!(!e.id_index().contains_key(&entry.id), "{n} still maps it");
        assert_eq!(e.sessions().duplicate_of(RETRIED, 1), Some(first));
    }
    (net, first, entry)
}

#[test]
fn fast_raft_answers_a_retried_compacted_write_as_a_duplicate() {
    let (mut net, first, entry) = compacted_write();
    // A follower gets the proposal again, at its original (compacted) slot
    // and at a fresh one: the session table answers both, nothing inserted.
    let follower = NodeId(2);
    let fresh = net.engine(follower).log().last_index().next();
    let duplicate = FastRaftMessage::ClientReply {
        session: RETRIED,
        seq: 1,
        outcome: ClientOutcome::Duplicate { first_index: first },
    };
    for index in [first, fresh] {
        let out = net.step(follower, |e, g, out| {
            let msg = FastRaftMessage::ProposeAt {
                index,
                entry: entry.clone(),
            };
            e.on_message(NodeId(1), msg, g, out);
        });
        assert_eq!(out.sends, vec![(NodeId(1), duplicate.clone())]);
        assert!(out.persists.is_empty(), "re-delivery at {index} inserted");
        assert_eq!(net.engine(follower).log().get(fresh), None);
    }
}

#[test]
fn fast_raft_applies_a_compacted_write_placed_again_once() {
    let (mut net, first, entry) = compacted_write();
    // Both followers vote for the write at the first undecided index (as
    // replicas that never applied it would): the leader decides it there, a
    // second slot, and commits it.
    let k = net.engine(NodeId(0)).commit_index().next();
    for voter in [NodeId(1), NodeId(2)] {
        net.with(NodeId(0), |e, g, out| {
            let msg = FastRaftMessage::Vote {
                index: k,
                entry: entry.clone(),
                commit_index: k.prev(),
            };
            e.on_message(voter, msg, g, out);
        });
    }
    let out = net.step(NodeId(0), |e, g, out| {
        e.on_timer(TimerKind::LeaderTick, g, out)
    });
    let leader = net.engine(NodeId(0));
    assert_eq!(leader.log().get(k).map(|e| e.id), Some(entry.id));
    assert!(leader.commit_index() >= k, "the second copy committed");
    // Its apply is a duplicate of the first, not a second application.
    let applies: Vec<Result<LogIndex, LogIndex>> = out
        .observations
        .iter()
        .filter_map(|o| match *o {
            Observation::SessionApplied { session, index, .. } if session == RETRIED => {
                Some(Err(index))
            }
            Observation::SessionDuplicate {
                session,
                first_index,
                ..
            } if session == RETRIED => Some(Ok(first_index)),
            _ => None,
        })
        .collect();
    assert_eq!(applies, vec![Ok(first)]);
    net.route(NodeId(0), out);
    net.deliver_all();
    net.tick(NodeId(0), TimerKind::Heartbeat);
    let digest = net.engine(NodeId(0)).state_digest();
    for n in 0..3 {
        let e = net.engine(NodeId(n));
        assert!(e.commit_index() >= k, "{n} did not commit the copy");
        assert_eq!(e.state_digest(), digest, "{n} applied differently");
        assert_eq!(e.sessions().duplicate_of(RETRIED, 1), Some(first));
    }
}

#[test]
fn classic_raft_answers_a_retried_compacted_write_as_a_duplicate() {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut net = Lockstep::new((0..3).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            snappy(),
            SimRng::seed_from_u64(5200 + i),
        )
    }));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    // Node 1's only write (session 1, seq 1), then five from node 2.
    for gateway in [1, 2, 2, 2, 2, 2] {
        net.propose(NodeId(gateway), b"w");
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    let leader = net.node(NodeId(0));
    let first = net.commits(NodeId(0))[1].clone();
    assert_eq!(first.entry.id.proposer, NodeId(1), "the first write");
    assert!(leader.log().compacted_through() >= first.index);
    let id = first.entry.id;
    assert!(!leader.id_index().contains_key(&id));

    // The gateway retries it, same id and same session seq: the session
    // table answers, and nothing is appended or persisted.
    let before = leader.log().last_index();
    let mut effects = None;
    net.with_node(NodeId(0), |node, out| {
        let msg = RaftMessage::Propose {
            id,
            session: RETRIED,
            seq: 1,
            data: Bytes::from_static(b"w"),
        };
        node.on_message(NodeId(1), msg, out);
        effects = Some((out.sends.clone(), out.persists.len()));
    });
    let duplicate = RaftMessage::ClientReply {
        session: RETRIED,
        seq: 1,
        outcome: ClientOutcome::Duplicate {
            first_index: first.index,
        },
    };
    assert_eq!(effects, Some((vec![(NodeId(1), duplicate)], 0)));
    assert_eq!(net.node(NodeId(0)).log().last_index(), before);
}
