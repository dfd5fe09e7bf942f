//! Retries of a proposal id whose entry was compacted away are answered
//! exactly as when every committed id stayed mapped to its index.
//!
//! A replica's `IdIndex` keeps exact `id → index` mappings only above the
//! compaction horizon; below it an id is *settled* — known committed, index
//! forgotten. The duplicate rule (§IV-B) must not notice: a re-delivered
//! `ProposeAt` is answered `committed` and claims no slot, a vote for the id
//! at a fresh index is a null vote, and classic Raft's leader treats the id
//! as an in-flight duplicate. Fast Raft proposals here carry bare data (no
//! session), so the id index is the only dedup they meet.

use bytes::Bytes;
use consensus_core::{FastRaftEngine, FastRaftMessage, ProceedGate, TimerProfile};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftMessage, RaftNode, Role, Timing};
use wire::{
    Actions, Configuration, ConsensusProtocol, EntryId, LogEntry, LogIndex, LogScope, NodeId,
    Payload, Placement, SessionId, TimerKind,
};

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

    /// Runs one step at `id` and routes its sends.
    fn with(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut FastRaftEngine, &mut ProceedGate, &mut Actions<FastRaftMessage>),
    ) {
        let out = self.step(id, f);
        for (to, msg) in out.sends {
            self.queue.push_back((id, to, msg));
        }
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

/// Proposes `data` at `proposer`, commits it everywhere, and returns the
/// proposer's `ProposeAt` entry as it went out.
fn commit_data(net: &mut Net, proposer: NodeId, data: &'static [u8]) -> (LogIndex, LogEntry) {
    let out = net.step(proposer, |e, g, out| {
        e.propose_data(Bytes::from_static(data), g, out);
    });
    let (index, entry) = out
        .sends
        .iter()
        .find_map(|(_, m)| match m {
            FastRaftMessage::ProposeAt { index, entry } => Some((*index, entry.clone())),
            _ => None,
        })
        .expect("a broadcast proposal");
    for (to, msg) in out.sends {
        net.queue.push_back((proposer, to, msg));
    }
    net.deliver_all();
    net.tick(NodeId(0), TimerKind::LeaderTick);
    net.tick(NodeId(0), TimerKind::Heartbeat);
    (index, entry)
}

fn reply_committed(id: EntryId, leader_hint: Option<NodeId>) -> FastRaftMessage {
    FastRaftMessage::ProposeReply {
        id,
        committed: true,
        leader_hint,
    }
}

#[test]
fn fast_raft_answers_a_compacted_id_as_committed_and_nulls_its_votes() {
    let mut net = Net::new(3);
    for i in 0..3 {
        net.with(NodeId(i), |e, _, out| e.bootstrap(out));
    }
    net.tick(NodeId(0), TimerKind::Election);
    assert_eq!(net.engine(NodeId(0)).role(), Role::Leader);

    let (first, entry) = commit_data(&mut net, NodeId(1), b"a");
    for data in [b"b", b"c", b"d", b"e", b"f", b"g"] {
        commit_data(&mut net, NodeId(2), data);
    }
    let id = entry.id;
    for n in 0..3 {
        let e = net.engine(NodeId(n));
        assert!(
            e.log().compacted_through() >= first,
            "{n} compacted past {first}"
        );
        assert_eq!(e.id_index().get(&id), Some(Placement::Settled), "at {n}");
    }

    // A follower gets the proposal again, at its original (compacted) slot
    // and at a fresh one: answered committed both times, nothing inserted.
    let follower = NodeId(2);
    let fresh = net.engine(follower).log().last_index().next();
    for index in [first, fresh] {
        let out = net.step(follower, |e, g, out| {
            let msg = FastRaftMessage::ProposeAt {
                index,
                entry: entry.clone(),
            };
            e.on_message(NodeId(1), msg, g, out);
        });
        assert_eq!(
            out.sends,
            vec![(NodeId(1), reply_committed(id, Some(NodeId(0))))]
        );
        assert!(out.persists.is_empty(), "re-delivery at {index} inserted");
        assert_eq!(net.engine(follower).log().get(fresh), None);
    }

    // Both followers vote for the id at the first undecided index. Null
    // votes: the leader fills the slot with a no-op instead of committing
    // the proposal a second time.
    let k = net.engine(NodeId(0)).commit_index().next();
    for voter in [NodeId(1), NodeId(2)] {
        let out = net.step(NodeId(0), |e, g, out| {
            let msg = FastRaftMessage::Vote {
                index: k,
                entry: entry.clone(),
                commit_index: k.prev(),
            };
            e.on_message(voter, msg, g, out);
        });
        assert!(out.sends.is_empty() && out.persists.is_empty());
    }
    net.tick(NodeId(0), TimerKind::LeaderTick);
    let decided = net.engine(NodeId(0)).log().get(k).expect("k decided");
    assert_ne!(decided.id, id, "the compacted proposal was placed again");
    assert_eq!(decided.payload, Payload::Noop);
}

#[test]
fn classic_raft_treats_a_compacted_id_as_in_flight() {
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
    for i in 0..6 {
        net.propose(NodeId(1), format!("w{i}").as_bytes());
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    let leader = net.node(NodeId(0));
    let first = net.commits(NodeId(0))[1].clone();
    assert_eq!(first.entry.id.proposer, NodeId(1), "the first write");
    assert!(leader.log().compacted_through() >= first.index);
    let id = first.entry.id;
    assert_eq!(leader.id_index().get(&id), Some(Placement::Settled));

    // The id again, under a session the leader has never applied (so the
    // session table cannot answer first): dropped as already replicating.
    let before = leader.log().last_index();
    let mut effects = None;
    net.with_node(NodeId(0), |node, out| {
        let msg = RaftMessage::Propose {
            id,
            session: SessionId::client(9),
            seq: 1,
            data: Bytes::from_static(b"again"),
        };
        node.on_message(NodeId(1), msg, out);
        effects = Some((out.sends.len(), out.persists.len()));
    });
    assert_eq!(effects, Some((0, 0)));
    assert_eq!(net.node(NodeId(0)).log().last_index(), before);
}
