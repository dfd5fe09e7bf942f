//! Leader-lease behavior in the Fast Raft engine, plus the C-Raft
//! `StaleGlobal` read path: the same lifecycle the classic-Raft suite
//! walks (see `crates/raft/tests/lease.rs`), through the shared engine.

use consensus_core::FastRaftNode;
use des::{SimRng, SimTime};
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{
    ClientOutcome, Configuration, ConsensusProtocol, Consistency, NodeId, Observation, TimerKind,
};

fn cluster(n: u64) -> Lockstep<FastRaftNode> {
    cluster_with(n, Timing::lan()) // lease 300 ms, skew bound 50 ms, barrier 350 ms
}

fn cluster_with(n: u64, timing: Timing) -> Lockstep<FastRaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(9300 + i),
        )
    }))
}

fn stamp_all(net: &mut Lockstep<FastRaftNode>, ms: u64) {
    for id in net.ids() {
        net.node_mut(id).set_local_clock(SimTime::from_millis(ms));
    }
}

fn elect_with_lease(net: &mut Lockstep<FastRaftNode>) -> NodeId {
    stamp_all(net, 1000);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    stamp_all(net, 1400);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    NodeId(0)
}

fn lease_reads(net: &Lockstep<FastRaftNode>) -> usize {
    net.observations()
        .iter()
        .filter(|(_, o)| matches!(o, Observation::LeaseRead { .. }))
        .count()
}

fn readindex_reads(net: &Lockstep<FastRaftNode>) -> usize {
    net.observations()
        .iter()
        .filter(|(_, o)| matches!(o, Observation::ReadIndexRead { .. }))
        .count()
}

#[test]
fn engine_lease_read_is_local_and_message_free() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    stamp_all(&mut net, 1500);
    let key = net.read(leader, Consistency::Linearizable);
    assert!(
        net.responses_for(leader, key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
        "lease read unanswered"
    );
    assert_eq!(lease_reads(&net), 1);
    assert_eq!(readindex_reads(&net), 0);
    assert!(
        !net.deliver_one(),
        "a lease-served read must put zero messages on the wire"
    );
    net.assert_safety();
}

#[test]
fn engine_lapsed_lease_falls_back_then_recovers() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    stamp_all(&mut net, 5000);
    let key = net.read(leader, Consistency::Linearizable);
    net.deliver_all();
    assert!(
        net.responses_for(leader, key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
        "lapsed-lease read must complete through the quorum round"
    );
    assert_eq!(readindex_reads(&net), 1);
    assert_eq!(lease_reads(&net), 0);
    // The fallback round's acks doubled as fresh grants.
    let key2 = net.read(leader, Consistency::Linearizable);
    assert!(net
        .responses_for(leader, key2.0, key2.1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),);
    assert_eq!(lease_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn engine_vote_hold_blocks_rival_inside_window() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    let term_before = net.node(leader).current_term();
    stamp_all(&mut net, 1450);
    net.fire(NodeId(2), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(leader).role(), Role::Leader);
    assert_eq!(net.node(leader).current_term(), term_before);
    assert_ne!(net.node(NodeId(2)).role(), Role::Leader);
    // Liveness after expiry.
    stamp_all(&mut net, 4000);
    net.fire(NodeId(2), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(2)).role(), Role::Leader);
    net.assert_safety();
}

#[test]
fn engine_clockless_embedding_keeps_readindex_behavior() {
    let mut net = cluster(3);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let key = net.read(NodeId(0), Consistency::Linearizable);
    net.deliver_all();
    assert!(net
        .responses_for(NodeId(0), key.0, key.1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),);
    assert_eq!(lease_reads(&net), 0);
    assert_eq!(readindex_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn stale_global_read_on_single_level_equals_stale_local() {
    // In the single-level protocols the only log *is* the global log:
    // StaleGlobal answers immediately from the local floor, no leader, no
    // round.
    let mut net = cluster(3);
    elect_with_lease(&mut net);
    let wkey = net.propose(NodeId(1), b"w");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    assert!(net
        .responses_for(NodeId(1), wkey.0, wkey.1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. })));
    let key = net.read(NodeId(2), Consistency::StaleGlobal);
    let outcomes = net.responses_for(NodeId(2), key.0, key.1);
    let floor = outcomes
        .iter()
        .find_map(|o| match o {
            ClientOutcome::ReadOk { commit_floor, .. } => Some(*commit_floor),
            _ => None,
        })
        .expect("StaleGlobal answers locally");
    assert!(
        !floor.is_zero(),
        "follower floor covers the committed write"
    );
    assert!(
        !net.deliver_one(),
        "StaleGlobal is a zero-message read at any site"
    );
}
