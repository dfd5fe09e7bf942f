//! §IV-D membership scenarios: self-announced joins and leaves, one change
//! at a time, catch-up, and eviction/rejoin edge cases.

use consensus_core::FastRaftNode;
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{Configuration, NodeId, Observation, TimerKind};

fn cluster(n: u64) -> Lockstep<FastRaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(8000 + i),
        )
    }))
}

fn elect(net: &mut Lockstep<FastRaftNode>, who: NodeId) {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader);
}

fn settle(net: &mut Lockstep<FastRaftNode>, leader: NodeId, rounds: usize) {
    for _ in 0..rounds {
        net.fire(leader, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
    }
}

#[test]
fn concurrent_joins_are_serialized() {
    let mut net = cluster(3);
    elect(&mut net, NodeId(0));
    // Two sites request to join at the same time; the leader must process
    // them one at a time (§IV-D: "only one site may join at a time").
    for id in [NodeId(10), NodeId(11)] {
        let joiner = FastRaftNode::joining(
            id,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            Timing::lan(),
            SimRng::seed_from_u64(id.as_u64()),
        );
        net.restart(joiner);
    }
    net.deliver_all();
    settle(&mut net, NodeId(0), 8);
    // Both eventually joined...
    let cfg = net.node(NodeId(0)).config().clone();
    assert!(cfg.contains(NodeId(10)), "{cfg:?}");
    assert!(cfg.contains(NodeId(11)), "{cfg:?}");
    assert_eq!(cfg.len(), 5);
    // ...via two separate config commits, each a single-site change.
    let config_entries: Vec<&Configuration> = net
        .node(NodeId(0))
        .log()
        .iter()
        .filter_map(|(_, e)| e.as_config())
        .collect();
    assert_eq!(config_entries.len(), 2, "one config entry per join");
    assert_eq!(config_entries[0].len(), 4);
    assert_eq!(config_entries[1].len(), 5);
    net.assert_safety();
}

#[test]
fn joiner_is_caught_up_before_voting() {
    let mut net = cluster(3);
    elect(&mut net, NodeId(0));
    // Commit history before the join.
    for i in 0..5 {
        net.propose(NodeId(1), format!("e{i}").as_bytes());
        net.deliver_all();
        settle(&mut net, NodeId(0), 1);
    }
    let pre_join_commit = net.node(NodeId(0)).commit_index();
    assert!(pre_join_commit.as_u64() >= 5);
    let joiner = FastRaftNode::joining(
        NodeId(9),
        vec![NodeId(0)],
        Timing::lan(),
        SimRng::seed_from_u64(1),
    );
    net.restart(joiner);
    net.deliver_all();
    settle(&mut net, NodeId(0), 6);
    assert!(!net.node(NodeId(9)).is_joining());
    // The joiner holds the full pre-join history.
    for k in 1..=pre_join_commit.as_u64() {
        assert!(
            net.node(NodeId(9)).log().get(wire::LogIndex(k)).is_some(),
            "joiner missing catch-up entry {k}"
        );
    }
    net.assert_safety();
}

#[test]
fn leave_request_through_follower_is_forwarded() {
    let mut net = cluster(4);
    elect(&mut net, NodeId(0));
    settle(&mut net, NodeId(0), 1);
    // Node 3 announces departure while only knowing a follower: the request
    // reaches the leader via the follower's redirect (engine forwards
    // LeaveRequest to its leader hint).
    net.with_node(NodeId(3), |n, out| {
        // Simulate a stale hint by sending the leave to node 1 (follower).
        let _ = n;
        out.send(NodeId(1), consensus_core::FastRaftMessage::LeaveRequest { node: NodeId(3) });
    });
    net.deliver_all();
    settle(&mut net, NodeId(0), 3);
    assert!(!net.node(NodeId(0)).config().contains(NodeId(3)));
    assert_eq!(net.node(NodeId(0)).config().len(), 3);
    net.assert_safety();
}

#[test]
fn quorum_shrinks_after_members_leave() {
    let mut net = cluster(5);
    elect(&mut net, NodeId(0));
    settle(&mut net, NodeId(0), 1);
    // Fast quorum is 4 of 5; after two announced leaves it is 3 of 3.
    for id in [NodeId(3), NodeId(4)] {
        net.with_node(id, |n, out| n.request_leave(out));
        net.deliver_all();
        settle(&mut net, NodeId(0), 3);
    }
    let cfg = net.node(NodeId(0)).config().clone();
    assert_eq!(cfg.len(), 3);
    assert_eq!(cfg.fast_quorum(), 3);
    assert_eq!(cfg.classic_quorum(), 2);
    // Fast track works with the shrunken quorum: proposal commits on one
    // decision tick with votes from the three survivors.
    let pid = net.propose(NodeId(1), b"small-quorum");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    let notified = net
        .responses_for(NodeId(1), pid.0, pid.1)
        .iter()
        .any(|o| matches!(o, wire::ClientOutcome::Committed { .. }));
    assert!(notified, "fast track must work at quorum 3/3");
    net.assert_safety();
}

#[test]
fn evicted_member_rejoins_automatically() {
    let mut net = cluster(5);
    elect(&mut net, NodeId(0));
    settle(&mut net, NodeId(0), 1);
    // Node 4 goes dark (crash) long enough for the member timeout.
    net.crash(NodeId(4));
    for _ in 0..7 {
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::LeaderTick);
        net.deliver_all();
    }
    assert!(!net.node(NodeId(0)).config().contains(NodeId(4)), "evicted");
    // Node 4 comes back from stable storage, still believing it is a
    // member. Its elections go unanswered; after three it probes with a
    // join request and re-enters.
    let stable = net.disk().read(NodeId(4)).unwrap().clone();
    let back = FastRaftNode::recover(
        NodeId(4),
        &stable,
        (0..5).map(NodeId).collect(),
        Timing::lan(),
        SimRng::seed_from_u64(321),
    );
    net.restart(back);
    for _ in 0..4 {
        net.fire(NodeId(4), TimerKind::Election);
        net.deliver_all();
    }
    // The returning node's inflated term (from its failed elections) deposes
    // the leader through its learner acknowledgements — the classic Raft
    // "disruptive server" episode. The survivors re-elect at a higher term
    // (automatic under the time-driven runner; driven explicitly here), and
    // catch-up + reconfiguration then proceed.
    for _ in 0..3 {
        if net.leaders_by(|n| n.role() == Role::Leader).is_empty() {
            net.fire(NodeId(0), TimerKind::Election);
            net.deliver_all();
        }
        let Some(&leader) = net.leaders_by(|n| n.role() == Role::Leader).first() else {
            continue;
        };
        settle(&mut net, leader, 8);
        if net.node(leader).config().contains(NodeId(4)) {
            break;
        }
    }
    let leader = net.leaders_by(|n| n.role() == Role::Leader)[0];
    assert!(
        net.node(leader).config().contains(NodeId(4)),
        "evicted member failed to rejoin: {:?}",
        net.node(leader).config()
    );
    assert!(!net.node(NodeId(4)).is_joining());
    net.assert_safety();
}

#[test]
fn leader_ignores_self_leave() {
    let mut net = cluster(3);
    elect(&mut net, NodeId(0));
    net.with_node(NodeId(0), |n, out| n.request_leave(out));
    net.deliver_all();
    settle(&mut net, NodeId(0), 2);
    // Defensive behaviour: the leader does not remove itself (§IV-D leaves
    // this case unspecified; see docs/DEVIATIONS.md, row 3).
    assert!(net.node(NodeId(0)).config().contains(NodeId(0)));
    assert!(net
        .observations()
        .iter()
        .any(|(n, o)| *n == NodeId(0)
            && matches!(o, Observation::MessageIgnored { reason } if reason.contains("self-leave"))));
}

#[test]
fn join_request_to_full_member_is_acknowledged() {
    let mut net = cluster(3);
    elect(&mut net, NodeId(0));
    // A current member "requests to join" (e.g. a redundant probe): the
    // leader acknowledges without reconfiguring.
    net.with_node(NodeId(1), |n, out| {
        let _ = n;
        out.send(NodeId(0), consensus_core::FastRaftMessage::JoinRequest { node: NodeId(1) });
    });
    net.deliver_all();
    settle(&mut net, NodeId(0), 2);
    assert_eq!(net.node(NodeId(0)).config().len(), 3, "no spurious reconfig");
    net.assert_safety();
}
