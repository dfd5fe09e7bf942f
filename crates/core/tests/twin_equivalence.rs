//! The drift detector for `raft::replica::Replica`: one lockstep script run
//! over classic Raft and over Fast Raft, asserting that everything the
//! shared replica owns — term, role, leader hint, configuration, snapshot
//! horizon, and how often each site took office, stepped down, or installed
//! a snapshot — agrees between the two after every step of the script.
//!
//! The protocols differ in how an entry gets chosen, and classic Raft opens
//! a term with a no-op Fast Raft does not need, so logs and commit indices
//! are *not* compared and a step is a stage of the script, not a single
//! write: classic's log runs one index ahead and crosses the snapshot
//! threshold one write earlier. Both apply one index at a time, so both
//! compact at the same index (`snapshot_threshold + 1`) within one stage.
//! Two of five sites are isolated at that point, which also takes Fast Raft
//! off its fast track (no fast quorum): on it a leader commits — and
//! compacts — an index before any follower holds it as leader-approved, and
//! so serves even connected followers a snapshot where classic Raft, which
//! commits only what a majority already matched, never needs to.

use consensus_core::FastRaftNode;
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use wire::{Configuration, ConsensusProtocol, LogIndex, NodeId, Observation, Term, TimerKind};

const SITES: u64 = 5;
const THRESHOLD: u64 = 4;

/// What `Replica` owns, as either engine exposes it.
trait Twin: ConsensusProtocol {
    fn build(id: NodeId, config: Configuration, timing: Timing, rng: SimRng) -> Self;
    fn view(&self) -> (Term, Role, Option<NodeId>, Configuration, Option<LogIndex>);
}

impl Twin for RaftNode {
    fn build(id: NodeId, config: Configuration, timing: Timing, rng: SimRng) -> Self {
        RaftNode::new(id, config, timing, rng)
    }
    fn view(&self) -> (Term, Role, Option<NodeId>, Configuration, Option<LogIndex>) {
        let horizon = self.snapshot().map(|s| s.last_index);
        let config = self.config().clone();
        (
            self.current_term(),
            self.role(),
            self.leader_hint(),
            config,
            horizon,
        )
    }
}

impl Twin for FastRaftNode {
    fn build(id: NodeId, config: Configuration, timing: Timing, rng: SimRng) -> Self {
        FastRaftNode::new(id, config, timing, rng)
    }
    fn view(&self) -> (Term, Role, Option<NodeId>, Configuration, Option<LogIndex>) {
        let horizon = self.snapshot().map(|s| s.last_index);
        let config = self.config().clone();
        (
            self.current_term(),
            self.role(),
            self.leader_hint(),
            config,
            horizon,
        )
    }
}

/// One site after one step: its view, then how many times it has observed
/// `BecameLeader`, `BecameFollower` and `SnapshotInstalled` so far.
type Row = (
    &'static str,
    NodeId,
    (Term, Role, Option<NodeId>, Configuration, Option<LogIndex>),
    [usize; 3],
);

fn record<P: Twin>(step: &'static str, net: &Lockstep<P>, rows: &mut Vec<Row>) {
    for id in net.ids() {
        let count = |pick: fn(&Observation) -> bool| {
            net.observations()
                .iter()
                .filter(|(n, o)| *n == id && pick(o))
                .count()
        };
        let counts = [
            count(|o| matches!(o, Observation::BecameLeader { .. })),
            count(|o| matches!(o, Observation::BecameFollower { .. })),
            count(|o| matches!(o, Observation::SnapshotInstalled { .. })),
        ];
        rows.push((step, id, net.node(id).view(), counts));
    }
}

/// Lets `leader` decide, replicate and spread its commit index. Classic
/// Raft has no decision tick; firing an unarmed timer is a no-op.
fn settle<P: Twin>(net: &mut Lockstep<P>, leader: NodeId) {
    net.deliver_all();
    for _ in 0..2 {
        net.fire(leader, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
    }
}

fn script<P: Twin>() -> Vec<Row> {
    let config: Configuration = (0..SITES).map(NodeId).collect();
    let timing = Timing {
        snapshot_threshold: THRESHOLD,
        // Lockstep heartbeats outrun real time; keep Fast Raft's member
        // timeout from evicting the isolated site (classic has none).
        member_timeout_beats: 1000,
        ..Timing::lan()
    };
    let mut net = Lockstep::new(
        (0..SITES).map(|i| P::build(NodeId(i), config.clone(), timing, SimRng::seed_from_u64(i))),
    );
    let (first, second, laggards) = (NodeId(0), NodeId(1), [NodeId(3), NodeId(4)]);
    let mut rows = Vec::new();
    record("boot", &net, &mut rows);

    net.fire(first, TimerKind::Election);
    settle(&mut net, first);
    record("elect", &net, &mut rows);

    for write in 0..3u8 {
        net.propose(first, &[write]);
        settle(&mut net, first);
    }
    record("3 writes", &net, &mut rows);

    // The laggards drop off; the rest write past the snapshot threshold and
    // compact, so the leader can no longer serve them from the log.
    net.set_link_filter(move |from, to| !laggards.contains(&from) && !laggards.contains(&to));
    for write in 3..6u8 {
        net.propose(first, &[write]);
        settle(&mut net, first);
    }
    record("isolated", &net, &mut rows);

    net.set_link_filter(|_, _| true);
    settle(&mut net, first);
    record("heal", &net, &mut rows);

    net.fire(second, TimerKind::Election);
    settle(&mut net, second);
    record("depose", &net, &mut rows);

    net.assert_safety();
    rows
}

#[test]
fn replica_owned_observables_agree_step_for_step_between_classic_and_fast_raft() {
    let (classic, fast) = (script::<RaftNode>(), script::<FastRaftNode>());
    assert_eq!(classic.len(), fast.len());
    for (c, f) in classic.iter().zip(&fast) {
        assert_eq!(c, f, "classic (left) and Fast Raft (right) drifted");
    }

    // The script did what it says, so agreement is not vacuous.
    let at = |step: &str, id: u64| {
        let row = classic.iter().find(|r| r.0 == step && r.1 == NodeId(id));
        row.expect("recorded").clone()
    };
    let horizon = Some(LogIndex(THRESHOLD + 1));
    let (_, _, (term, role, hint, _, snapshot), counts) = at("elect", 0);
    assert_eq!(
        (term, role, hint, snapshot),
        (Term(1), Role::Leader, Some(NodeId(0)), None)
    );
    assert_eq!(counts, [1, 0, 0]);
    assert_eq!(at("3 writes", 0).2 .4, None, "below the threshold");
    assert_eq!(at("isolated", 0).2 .4, horizon, "leader compacted");
    assert_eq!(
        at("isolated", 1).3[2],
        0,
        "a connected follower replays the log"
    );
    assert_eq!(at("isolated", 4).2 .4, None, "a laggard could not compact");
    let (_, _, (.., snapshot), counts) = at("heal", 4);
    assert_eq!((snapshot, counts[2]), (horizon, 1), "caught up by snapshot");
    let (_, _, (term, role, hint, ..), counts) = at("depose", 0);
    assert_eq!(
        (term, role, hint),
        (Term(2), Role::Follower, Some(NodeId(1)))
    );
    assert_eq!(
        (counts[0], counts[1] >= 1),
        (1, true),
        "led once, stepped down"
    );
    assert_eq!(at("depose", 1).2 .1, Role::Leader);
}
